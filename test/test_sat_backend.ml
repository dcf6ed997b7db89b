(* The CDCL incremental session as a first-class admission backend, from
   four angles:

   - qcheck: pushing a body chunk-by-chunk into one persistent
     {!Sat.Inc} session is equisatisfiable with the search solver on the
     flattened conjunction — including after an UNSAT answer (a
     rejection leaves the dropped chunk's clauses behind as inert
     garbage) and across resplits and merges of the chunk boundaries;
   - 200 seeded workload traces: [Sat_backend] transcripts are
     bit-identical to the backtracking engine's, in both the
     incremental-CDCL and the from-scratch (session reset per check)
     modes;
   - governor: an expired deadline surfaces as [Overloaded] under the
     SAT backend, never as a semantic rejection;
   - crash monkey: 50 kill/recover cycles driving the CDCL session
     through WAL recovery, zero violations. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Database = Relational.Database
module Qdb = Quantum.Qdb
module Governor = Quantum.Governor
module Metrics = Quantum.Metrics
module Rtxn = Quantum.Rtxn
module Flights = Workload.Flights
module Travel = Workload.Travel
module Prng = Workload.Prng
open Logic

(* -- Session pushes vs search on the flattened body -------------------------- *)

(* Same tiny R/S database as the solver gate. *)
let make_db r_rows s_rows =
  let db = Database.create () in
  let r =
    Database.create_table db
      (Schema.make ~name:"R"
         ~columns:[ Schema.column "a" Value.Tint; Schema.column "b" Value.Tint ]
         ())
  in
  let s =
    Database.create_table db
      (Schema.make ~name:"S"
         ~columns:[ Schema.column "b" Value.Tint; Schema.column "c" Value.Tint ]
         ())
  in
  List.iter
    (fun (a, b) -> ignore (Relational.Table.insert r (Tuple.of_list [ Value.Int a; Value.Int b ])))
    r_rows;
  List.iter
    (fun (b, c) -> ignore (Relational.Table.insert s (Tuple.of_list [ Value.Int b; Value.Int c ])))
    s_rows;
  db

(* Chunks share a 3-variable pool so equalities and disequalities cross
   chunk boundaries — exactly the shape the session's equality-theory
   repair has to keep consistent across pushes. *)
let pool = Array.init 3 (fun i -> Term.fresh_var (Printf.sprintf "q%d" i))

let chunk_gen =
  let open QCheck.Gen in
  let var_gen = map (fun i -> pool.(i mod 3)) small_nat in
  let term_gen =
    oneof [ map (fun v -> Term.V v) var_gen; map (fun n -> Term.int (n mod 4)) small_nat ]
  in
  let atom_gen =
    let* rel = oneofl [ "R"; "S" ] in
    let* t1 = term_gen and* t2 = term_gen in
    return (Atom.make rel [ t1; t2 ])
  in
  let leaf_gen =
    oneof
      [ map (fun a -> Formula.Atom a) atom_gen;
        (let* t1 = term_gen and* t2 = term_gen in
         return (Formula.Eq (t1, t2)));
        (let* t1 = term_gen and* t2 = term_gen in
         return (Formula.Neq (t1, t2)));
      ]
  in
  let* leaves = list_size (int_range 1 4) leaf_gen in
  let* ors = list_size (int_range 0 1) (list_size (int_range 1 3) leaf_gen) in
  return (Formula.and_ (leaves @ List.map (fun fs -> Formula.or_ fs) ors))

let db_gen =
  let open QCheck.Gen in
  let row_gen = pair (int_range 0 3) (int_range 0 3) in
  pair (list_size (int_range 0 8) row_gen) (list_size (int_range 0 8) row_gen)

let session_case =
  QCheck.make
    QCheck.Gen.(pair (triple chunk_gen chunk_gen chunk_gen) db_gen)
    ~print:(fun ((c1, c2, c3), _) ->
      String.concat " | " (List.map Formula.to_string [ c1; c2; c3 ]))

(* One session, many checks: a native session verdict must agree with
   the search solver on the flattened conjunction. *)
let agrees session db chunks =
  match Sat.Inc.check session db ~chunks with
  | Sat.Inc.V_sat _ -> Solver.Backtrack.satisfiable db (Formula.and_ chunks)
  | Sat.Inc.V_unsat -> not (Solver.Backtrack.satisfiable db (Formula.and_ chunks))
  | Sat.Inc.V_unsupported _ -> true

let prop_session_equisatisfiable =
  QCheck.Test.make
    ~name:"inc session = backtrack (push, reject, resplit, merge)" ~count:300
    session_case
    (fun ((c1, c2, c3), (r_rows, s_rows)) ->
      let db = make_db r_rows s_rows in
      let session = Sat.Inc.create () in
      (* Grow the live set one chunk at a time, then re-check earlier
         subsets (a rejected chunk's garbage must stay inert), then the
         same body re-chunked: merged into one chunk and resplit with a
         different boundary.  Every verdict checks against the search
         solver on exactly the live conjunction. *)
      List.for_all
        (agrees session db)
        [ [ c1 ];
          [ c1; c2 ];
          [ c1 ];
          [ c1; c2; c3 ];
          [ c2; c3 ];
          [ Formula.and_ [ c1; c2 ] ];
          [ Formula.and_ [ c1; c2 ]; c3 ];
          [ Formula.and_ [ c1; c2; c3 ] ];
        ])

(* -- Seeded-trace outcome identity ------------------------------------------ *)

let geometry = { Flights.flights = 2; rows_per_flight = 2; dest = "LA" }
let user name flight = { Travel.name; partner = "-"; flight }

type op =
  | Submit of Travel.user
  | Ground_nth of int
  | Ground_all

let gen_trace rng len =
  List.init len (fun i ->
      let r = Prng.int rng 100 in
      if r < 70 then Submit (user (Printf.sprintf "u%d" i) (Prng.int rng geometry.Flights.flights))
      else if r < 90 then Ground_nth (Prng.int rng 8)
      else Ground_all)

(* Insert-safety checks are off in every config: their negative atoms are
   not SAT-encodable, and identity must compare the backends on the same
   composed body (the sat bench makes the same call). *)
let config backend ~incremental =
  { Qdb.default_config with
    Qdb.k = 6;
    cache_capacity = 2;
    check_inserts = false;
    backend;
    incremental;
  }

let apply_trace config trace =
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create ~config store in
  List.map
    (fun op ->
      match op with
      | Submit u ->
        (match Qdb.submit qdb (Travel.plain_txn u) with
         | Qdb.Committed id -> Printf.sprintf "c%d" id
         | Qdb.Rejected _ -> "r"
         | Qdb.Overloaded _ -> "o")
      | Ground_nth n ->
        (match Qdb.pending qdb with
         | [] -> "g-"
         | ps ->
           let txn = List.nth ps (n mod List.length ps) in
           Printf.sprintf "g%d" (List.length (Qdb.ground qdb txn.Rtxn.id)))
      | Ground_all -> Printf.sprintf "G%d" (List.length (Qdb.ground_all qdb)))
    trace

let search = config Qdb.Backtracking ~incremental:true
let cdcl = config Qdb.Sat_backend ~incremental:true
let fresh = config Qdb.Sat_backend ~incremental:false

(* 200 seeded traces, CDCL vs backtracking; the from-scratch mode rides
   on the first quarter (it re-encodes the whole body each admission, so
   the equivalence it adds is mostly the encoder's, already heavily
   covered). *)
let test_sat_trace_identity () =
  for seed = 1 to 200 do
    let trace = gen_trace (Prng.create seed) 12 in
    let reference = apply_trace search trace in
    Alcotest.(check (list string))
      (Printf.sprintf "cdcl = backtracking (seed %d)" seed)
      reference
      (apply_trace cdcl trace);
    if seed <= 50 then
      Alcotest.(check (list string))
        (Printf.sprintf "fresh = backtracking (seed %d)" seed)
        reference
        (apply_trace fresh trace)
  done

(* -- Governor: budget blowups stay Overloaded -------------------------------- *)

(* A 1 ns deadline has expired by solve entry in both SAT modes (the
   CDCL solver checks it on entry, before its first decision); the
   ladder must exhaust and report [Overloaded] — not swallow the timeout
   as unsatisfiable. *)
let test_sat_deadline_overloads () =
  List.iter
    (fun (name, config) ->
      let store = Flights.fresh_store geometry in
      let qdb = Qdb.create ~config store in
      let gov = Governor.make ~deadline_ns:1L ~max_retries:0 () in
      match Qdb.submit ~governor:gov qdb (Travel.plain_txn (user "late" 0)) with
      | Qdb.Overloaded _ -> ()
      | Qdb.Rejected r ->
        Alcotest.failf "%s: deadline expiry misreported as Rejected: %s" name r
      | Qdb.Committed _ -> Alcotest.failf "%s: committed under an expired deadline" name)
    [ ("cdcl", cdcl); ("fresh", fresh) ]

(* -- Crash monkey ------------------------------------------------------------ *)

(* 50 kill/recover cycles with the CDCL session on the admission path:
   recovery rebuilds the session from the WAL'd pending set, and any
   acked-but-lost or phantom admission shows up as a violation. *)
let test_sat_crash_monkey () =
  let summary = Workload.Crash_monkey.run ~cycles:50 ~seed:31 ~backend:Qdb.Sat_backend () in
  Alcotest.(check (list (pair int string)))
    "no recovery violations under Sat_backend" [] summary.Workload.Crash_monkey.violations

let suite =
  [ QCheck_alcotest.to_alcotest prop_session_equisatisfiable;
    Alcotest.test_case "200 traces: sat backend = backtracking" `Slow test_sat_trace_identity;
    Alcotest.test_case "expired deadline stays Overloaded under sat" `Quick
      test_sat_deadline_overloads;
    Alcotest.test_case "crash monkey: zero violations under sat" `Slow test_sat_crash_monkey;
  ]
