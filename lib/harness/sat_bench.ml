(* SAT-backend ablation sweep: cost of one admission as the pending set
   deepens, across three solver backends on identical workloads —

   - backtracking: the production path (delta composition + witness
     extension through the solution cache);
   - cdcl_fresh: [Sat_backend] with [incremental = false] — the same
     CDCL session, reset before every admission, so each check re-encodes
     the whole body into an empty solver (the from-scratch ablation);
   - cdcl: [Sat_backend] with [incremental = true] — the persistent
     incremental session; per-transaction chunks encode once, solves run
     under activation-literal assumptions and learned clauses survive.

   The from-scratch series runs only at k in [fresh_ks] and the dense
   point: its cost per admission grows steeply with k (22 ms at k=40,
   115 ms at k=80 on a 2-vCPU host), so a k=160 point would dominate the
   sweep.

   One flight with ~k seats, k plain bookings into one partition: the
   k-th admission composes against k-1 standing transactions with
   pairwise seat-distinctness through the delete-freeing predicates, and
   the flight ends nearly full.  A second,
   dense point drives entangled pair bookings (partner triggers ground
   pairs mid-sweep, exercising chunk staleness re-encoding in the
   session).  Insert-safety checks are off in ALL modes — their negative
   atoms are not SAT-encodable, and the sweep must compare backends on
   the same composed body.

   The sweep refuses to record anything unless the accept/reject outcome
   traces are bit-identical across the backends at every point.  Wall
   time per point is the best of [repeats] runs (fresh store and engine
   each time).  [fallbacks] counts admissions the SAT backend could not
   solve natively (encode budget / unsupported body) and handed to the
   search solver; the k=160 point pins it at zero for the incremental
   session. *)

module Qdb = Quantum.Qdb
module Metrics = Quantum.Metrics
module Travel = Workload.Travel
module Flights = Workload.Flights

type mode =
  | Backtracking
  | Cdcl_fresh
  | Cdcl

let mode_name = function
  | Backtracking -> "backtracking"
  | Cdcl_fresh -> "cdcl_fresh"
  | Cdcl -> "cdcl"

let all_modes = [ Backtracking; Cdcl_fresh; Cdcl ]

type point = {
  mode : string;
  k : int;
  dense : bool;  (** entangled pair workload instead of plain bookings *)
  wall_s : float;
  ns_per_admission : float;
  committed : int;
  rejected : int;
  conflicts : int;  (** CDCL session counters; 0 for the other modes *)
  learned : int;
  restarts : int;
  propagations : int;
  fallbacks : int;  (** SAT checks handed to the search solver *)
  resets : int;  (** session resets: clause-budget rebuilds, or one per
                     admission for [cdcl_fresh] *)
}

type recording = {
  ks : int list;
  fresh_ks : int list;  (** the subset of [ks] where cdcl_fresh also runs *)
  dense_k : int;
  repeats : int;
  cores : int;
  series : point list;
  speedup_vs_fresh : (int * float) list;  (** per fresh k: cdcl_fresh ns / cdcl ns *)
  speedup_vs_backtracking : (int * float) list;
  deterministic : bool;  (** outcomes identical across the backends *)
}

let default_ks = [ 40; 80; 160 ]
let fresh_ks = [ 40; 80 ]
let default_dense_k = 24

let users_for k =
  List.filteri (fun i _ -> i < k) (Travel.make_users ~flights:1 ~pairs_per_flight:((k + 1) / 2))

let config mode k =
  (* k+1 bound: no k-pressure grounding mid-measurement.  Capacity 1
     keeps post-commit refills out of the measured path (see the
     admission bench).  check_inserts off in every mode — see header. *)
  let base =
    { Qdb.default_config with Qdb.k = k + 1; cache_capacity = 1; check_inserts = false }
  in
  match mode with
  | Backtracking -> base
  | Cdcl_fresh -> { base with Qdb.backend = Qdb.Sat_backend; incremental = false }
  | Cdcl -> { base with Qdb.backend = Qdb.Sat_backend; incremental = true }

(* One sweep: k admissions into a fresh engine.  Returns the engine (for
   counter readout), the per-submission outcome trace and wall time. *)
let sweep mode ~dense k =
  (* 3 seats per row: size the flight to k seats (rounded up to a whole
     row), so the k-th booking runs against a nearly-full flight and the
     per-variable domain stays k-sized rather than 3k. *)
  let store =
    Flights.fresh_store { Flights.flights = 1; rows_per_flight = (k + 2) / 3; dest = "LA" }
  in
  let qdb = Qdb.create ~config:(config mode k) store in
  let txn_of u = if dense then Travel.entangled_txn u else Travel.plain_txn u in
  let t0 = Obs.Mclock.now_ns () in
  let outcomes =
    List.map
      (fun u ->
        match Qdb.submit qdb (txn_of u) with
        | Qdb.Committed _ -> true
        | Qdb.Rejected _ | Qdb.Overloaded _ -> false)
      (users_for k)
  in
  (qdb, outcomes, Obs.Mclock.elapsed_s t0)

let run_point ~repeats mode ~dense k =
  let runs = List.init repeats (fun _ -> sweep mode ~dense k) in
  let qdb, outcomes, _ = List.hd runs in
  let wall_s = List.fold_left (fun acc (_, _, w) -> Float.min acc w) infinity runs in
  let m = Qdb.metrics qdb in
  let committed = List.length (List.filter Fun.id outcomes) in
  ( {
      mode = mode_name mode;
      k;
      dense;
      wall_s;
      ns_per_admission = wall_s *. 1e9 /. float_of_int k;
      committed;
      rejected = List.length outcomes - committed;
      conflicts = m.Metrics.sat_conflicts;
      learned = m.Metrics.sat_learned;
      restarts = m.Metrics.sat_restarts;
      propagations = m.Metrics.sat_propagations;
      fallbacks = m.Metrics.sat_fallbacks;
      resets = Qdb.sat_session_resets qdb;
    },
    outcomes )

let run ?(ks = default_ks) ?(dense_k = default_dense_k) ?(repeats = 3) () =
  let fresh_ks = List.filter (fun k -> List.mem k ks) fresh_ks in
  let measure modes ~dense k =
    let results = List.map (fun mode -> run_point ~repeats mode ~dense k) modes in
    let reference = snd (List.hd results) in
    let identical = List.for_all (fun (_, outcomes) -> outcomes = reference) results in
    (List.map fst results, identical)
  in
  let modes_at k =
    if List.mem k fresh_ks then all_modes else List.filter (( <> ) Cdcl_fresh) all_modes
  in
  let sparse = List.map (fun k -> (k, measure (modes_at k) ~dense:false k)) ks in
  let dense_points, dense_identical = measure all_modes ~dense:true dense_k in
  let find mode points = List.find (fun p -> p.mode = mode_name mode) points in
  let speedup num den = if den.ns_per_admission > 0. then num.ns_per_admission /. den.ns_per_admission else 0. in
  {
    ks;
    fresh_ks;
    dense_k;
    repeats;
    cores = Domain.recommended_domain_count ();
    series = List.concat_map (fun (_, (points, _)) -> points) sparse @ dense_points;
    speedup_vs_fresh =
      List.filter_map
        (fun (k, (points, _)) ->
          if List.mem k fresh_ks then Some (k, speedup (find Cdcl_fresh points) (find Cdcl points))
          else None)
        sparse;
    speedup_vs_backtracking =
      List.map
        (fun (k, (points, _)) -> (k, speedup (find Backtracking points) (find Cdcl points)))
        sparse;
    deterministic =
      dense_identical && List.for_all (fun (_, (_, identical)) -> identical) sparse;
  }

(* -- Reporting -------------------------------------------------------------- *)

let print r =
  Common.section "SAT backend: incremental CDCL vs fresh CDCL vs backtracking (pending-depth sweep)";
  let rows =
    List.map
      (fun p ->
        [ string_of_int p.k;
          (if p.dense then p.mode ^ "/dense" else p.mode);
          Printf.sprintf "%.1f" (p.ns_per_admission /. 1000.);
          string_of_int p.committed;
          string_of_int p.rejected;
          string_of_int p.conflicts;
          string_of_int p.learned;
          string_of_int p.fallbacks;
          string_of_int p.resets;
        ])
      r.series
  in
  Common.print_table ~csv:"sat"
    ~header:[ "k"; "mode"; "us/adm"; "committed"; "rejected"; "conflicts"; "learned"; "fallbacks"; "resets" ]
    rows;
  List.iter
    (fun (k, b) ->
      let fresh =
        match List.assoc_opt k r.speedup_vs_fresh with
        | Some f -> Printf.sprintf "%.2fx vs cdcl_fresh, " f
        | None -> ""
      in
      Printf.printf "k=%-3d cdcl speedup: %s%.2fx vs backtracking\n%!" k fresh b)
    r.speedup_vs_backtracking;
  Printf.printf "(host cores: %d; outcomes %s across the backends)\n%!" r.cores
    (if r.deterministic then "identical" else "DIVERGED");
  if not r.deterministic then
    failwith "sat bench: outcomes diverged across backends"

let json_of_recording r =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  let ints xs = String.concat ", " (List.map string_of_int xs) in
  Buffer.add_string b "  \"schema\": \"qdb.bench.sat/v2\",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"workload\": {\"ks\": [%s], \"fresh_ks\": [%s], \"dense_k\": %d, \"repeats\": \
        %d},\n"
       (ints r.ks) (ints r.fresh_ks) r.dense_k r.repeats);
  Buffer.add_string b
    (Printf.sprintf "  \"host\": {\"cores\": %d},\n  \"deterministic\": %b,\n  \"series\": [\n"
       r.cores r.deterministic);
  List.iteri
    (fun i p ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"k\": %d, \"mode\": \"%s\", \"dense\": %b, \"wall_s\": %.6f, \
            \"ns_per_admission\": %.1f, \"committed\": %d, \"rejected\": %d, \"conflicts\": \
            %d, \"learned\": %d, \"restarts\": %d, \"propagations\": %d, \"fallbacks\": %d, \
            \"resets\": %d}%s\n"
           p.k p.mode p.dense p.wall_s p.ns_per_admission p.committed p.rejected p.conflicts
           p.learned p.restarts p.propagations p.fallbacks p.resets
           (if i = List.length r.series - 1 then "" else ",")))
    r.series;
  let speedups name xs =
    Buffer.add_string b (Printf.sprintf "  ],\n  \"%s\": [\n" name);
    List.iteri
      (fun i (k, x) ->
        Buffer.add_string b
          (Printf.sprintf "    {\"k\": %d, \"x\": %.3f}%s\n" k x
             (if i = List.length xs - 1 then "" else ",")))
      xs
  in
  speedups "speedup_cdcl_vs_fresh" r.speedup_vs_fresh;
  speedups "speedup_cdcl_vs_backtracking" r.speedup_vs_backtracking;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write ?(path = "results/BENCH_sat.json") r =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc (json_of_recording r);
  close_out oc;
  Printf.printf "(sat series written to %s)\n%!" path;
  path
