(* The in-process workloads: deep_k40, read_mix and flash_crowd.

   A round sets up a fresh store and engine, submits its whole booking
   stream (with reads, for read_mix), checks the engine, grounds what is
   left and checks the final tables.  The seed of round [r] is derived
   from the run's seed, and every round is whole, so that all rounds have
   the same shape of work.

   Each round runs [passes] times on identical inputs, the passes spread
   over the run: pass 0 of every round first, then pass 1 of every round,
   and so on.  The engine does the same work on every pass (outcomes are
   checked to agree), so each engine call is charged the fastest of its
   times, which keeps a slow stretch of the host out of the metrics.
   Passes pay off where one round already averages over many flights
   (flash_crowd); where a round is one flight whose cost depends on its
   arrival order (deep_k40, read_mix), more rounds in a single pass vary
   less from seed to seed. *)

module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Datalog_parser = Quantum.Datalog_parser
module Metrics = Quantum.Metrics
module Travel = Workload.Travel
module Flights = Workload.Flights
module Prng = Workload.Prng
module Wal = Relational.Wal
module Store = Relational.Store
module Value = Relational.Value
module Tuple = Relational.Tuple

let min_setups = 5

(* -- Inputs ------------------------------------------------------------------ *)

type op =
  | Book of Travel.user
  | Read of Travel.user  (** Collapse seat query of an earlier booker *)

let round_rng ~seed ~round = Prng.create ((seed * 1_000_003) + round)

let geometry (s : Spec.inproc) =
  { Flights.flights = s.Spec.flights; rows_per_flight = s.Spec.rows; dest = "LA" }

(* Every pair books with the partner condition, in Table 1's random order
   with flights interleaved round-robin; read_mix follows each booking
   with a read of a traveller who already booked. *)
let generate (s : Spec.inproc) rng =
  let users = Travel.make_users ~flights:s.Spec.flights ~pairs_per_flight:s.Spec.pairs_per_flight in
  let ordered = Array.of_list (Travel.order_users Travel.Random_order rng users) in
  let ops =
    if not s.Spec.reads then Array.map (fun u -> Book u) ordered
    else
      Array.concat
        (Array.to_list (Array.mapi (fun i u -> [| Book u; Read ordered.(Prng.int rng (i + 1)) |]) ordered))
  in
  (ops, users)

let text u = Travel.entangled_txn_text u

let digest (spec : Spec.t) s =
  let ops, _ = generate s (round_rng ~seed:spec.Spec.seed ~round:0) in
  let line = function
    | Book u -> Printf.sprintf "book %s %s %s" u.Travel.name u.Travel.partner (text u)
    | Read u -> "read " ^ u.Travel.name
  in
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list (Array.map line ops))))

(* -- One pass ------------------------------------------------------------------ *)

(* An op with its booking parsed from text, ready to run. *)
type step =
  | Submit of Travel.user * Rtxn.t
  | Collapse of Travel.user

type round = {
  steps : step array;
  users : Travel.user list;
  geometry : Flights.geometry;
  backend : Wal.backend;
  store : Store.t;
  qdb : Qdb.t;
  config : Qdb.config;
  parse_s : float;
}

(* Everything a round needs before its first request: the request
   stream, its bookings parsed from text, the store and the engine. *)
let setup (s : Spec.inproc) ~seed ~round =
  let ops, users = generate s (round_rng ~seed ~round) in
  let steps, parse_s =
    Tally.timed (fun () ->
        Array.map
          (function
            | Book u ->
              let trigger = Rtxn.On_partner u.Travel.partner in
              Submit (u, Datalog_parser.parse_txn ~label:u.Travel.name ~trigger (text u))
            | Read u -> Collapse u)
          ops)
  in
  let geometry = geometry s in
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend geometry in
  let config =
    { Qdb.default_config with
      Qdb.k = s.Spec.k;
      cache_capacity = s.Spec.cache_capacity;
      backend = Qdb.Backtracking;
    }
  in
  { steps; users; geometry; backend; store; qdb = Qdb.create ~config store; config; parse_s }

(* How a step ended; it must not depend on which pass ran it. *)
type outcome =
  | Booked
  | Refused
  | Failed  (** Overloaded *)
  | Answered

type pass = {
  outcomes : outcome array;
  times : float array;  (** engine-call seconds per step *)
  close_s : float;  (** grounding the leftovers *)
  coordinated : int;
  coordination_max : int;
}

let seat_of_row row =
  match Tuple.to_list row with
  | [ Value.Int f; Value.Int s ] -> Some (f, s)
  | _ -> None

(* A Collapse read of a committed traveller answers one seat on their
   flight, and the same seat every time. *)
let check_read check answers committed u rows =
  let name = u.Travel.name in
  if Hashtbl.mem committed name then
    match List.filter_map seat_of_row rows with
    | [ ((f, _) as seat) ] ->
      Check.expect check (f = u.Travel.flight) (fun () ->
          Printf.sprintf "read of %s answered flight %d" name f);
      (match Hashtbl.find_opt answers name with
       | Some earlier ->
         Check.expect check (earlier = seat) (fun () -> Printf.sprintf "read of %s changed its answer" name)
       | None -> Hashtbl.replace answers name seat)
    | rows ->
      Check.expect check false (fun () ->
          Printf.sprintf "read of committed %s answered %d rows" name (List.length rows))

let count x a = Array.fold_left (fun n y -> if y = x then n + 1 else n) 0 a

(* Run the stream, check the engine, ground the leftovers, check the final
   tables.  With [~layers], also charge this pass's engine work to the
   per-layer sums. *)
let run_pass (t : Tally.t) ~layers ~recover r =
  let check = t.Tally.check in
  let committed = Hashtbl.create 1024 and answers = Hashtbl.create 1024 in
  let call name f = Tally.timed (fun () -> Obs.Trace.span ~cat:"bench" name f) in
  let step = function
    | Submit (u, txn) ->
      (match call "bench.submit" (fun () -> Qdb.submit r.qdb txn) with
       | Qdb.Committed _, dt ->
         Hashtbl.replace committed u.Travel.name u.Travel.flight;
         (Booked, dt)
       | Qdb.Rejected _, dt -> (Refused, dt)
       | Qdb.Overloaded _, dt -> (Failed, dt))
    | Collapse u ->
      let rows, dt =
        call "bench.read" (fun () -> Qdb.read ~policy:Qdb.Collapse r.qdb (Travel.seat_query u))
      in
      check_read check answers committed u rows;
      (Answered, dt)
  in
  let gauges () =
    Tally.raise_to t "core.pending_max" (float_of_int (Qdb.pending_count r.qdb));
    Tally.raise_to t "core.partitions_max" (float_of_int (Qdb.partition_count r.qdb));
    Tally.raise_to t "core.composed_clauses_max" (float_of_int (Qdb.composed_clause_total r.qdb))
  in
  let p0 = Tally.phases () in
  let results =
    Array.map
      (fun s ->
        let result = step s in
        if layers then gauges ();
        result)
      r.steps
  in
  let p1 = Tally.phases () in
  let outcomes = Array.map fst results and times = Array.map snd results in
  (* Engine checks, before anything is grounded. *)
  Check.expect check (Qdb.invariant_holds r.qdb) (fun () -> "invariant broken before grounding");
  let m = Qdb.metrics r.qdb in
  let submitted = Array.length outcomes - count Answered outcomes in
  Check.expect check
    (m.Metrics.submitted = submitted
     && m.Metrics.committed = count Booked outcomes
     && m.Metrics.rejected = count Refused outcomes
     && m.Metrics.overloaded = count Failed outcomes)
    (fun () ->
      Printf.sprintf "outcome counts disagree: engine %d/%d/%d of %d, client %d/%d/%d of %d"
        m.Metrics.committed m.Metrics.rejected m.Metrics.overloaded m.Metrics.submitted
        (count Booked outcomes) (count Refused outcomes) (count Failed outcomes) submitted);
  if recover then begin
    let recovered = Qdb.pending_count (Qdb.recover ~config:r.config r.backend) in
    Check.expect check (recovered = Qdb.pending_count r.qdb) (fun () ->
        Printf.sprintf "recovery rebuilt %d pending, the engine holds %d" recovered
          (Qdb.pending_count r.qdb))
  end;
  (* Ground what is still pending one transaction at a time, oldest first:
     travellers whose partner was grounded under k-pressure before they
     arrived.  [Qdb.ground_all] would maximise all the leftovers' optional
     adjacency jointly, a search that took anywhere from 0 to 358 s per
     round of deep_k40. *)
  let p2 = Tally.phases () in
  let close_s =
    List.fold_left
      (fun acc txn -> acc +. snd (call "bench.ground" (fun () -> Qdb.ground r.qdb txn.Rtxn.id)))
      0. (Qdb.pending r.qdb)
  in
  let p3 = Tally.phases () in
  let db = Qdb.db r.qdb in
  Check.expect check (Qdb.pending_count r.qdb = 0) (fun () -> "transactions pending after grounding");
  Check.final_bookings check db ~committed;
  Hashtbl.iter
    (fun name seat ->
      Check.expect check
        (Flights.booking_of db name = Some seat)
        (fun () -> Printf.sprintf "%s's collapsed read changed by grounding" name))
    answers;
  if layers then begin
    let time_of keep =
      let sum = ref 0. in
      Array.iteri (fun i s -> if keep s then sum := !sum +. times.(i)) r.steps;
      !sum
    in
    Tally.add_phases t ~before:p0 ~after:p1;
    Tally.add_phases t ~before:p2 ~after:p3;
    Tally.add t "core.engine_s" (Array.fold_left ( +. ) close_s times);
    Tally.add t "core.submit_s" (time_of (function Submit _ -> true | Collapse _ -> false));
    Tally.add t "core.read_s" (time_of (function Collapse _ -> true | Submit _ -> false));
    Tally.add t "core.close_s" close_s;
    Tally.add t "core.parse_s" r.parse_s;
    Tally.add_int t "core.parses" submitted;
    Tally.add_int t "core.requests" (Array.length r.steps);
    Tally.add_engine t m (Store.wal_stats r.store)
  end;
  {
    outcomes;
    times;
    close_s;
    coordinated = Travel.coordinated_users db r.users;
    coordination_max = Travel.max_coordination r.geometry r.users;
  }

(* -- A run ---------------------------------------------------------------------- *)

(* Fold the passes of one round into the cycle, charging each step its
   fastest time.  Returns the round's requests and their engine time,
   grounding of leftovers included. *)
let combine (t : Tally.t) (c : Tally.cycle) ~round = function
  | [] -> (0, 0.)
  | first :: _ as runs ->
    List.iter
      (fun p ->
        Check.expect t.Tally.check (p.outcomes = first.outcomes) (fun () ->
            Printf.sprintf "round %d: outcomes differ between passes over the same inputs" round))
      runs;
    let fastest f = List.fold_left (fun acc p -> Float.min acc (f p)) Float.infinity runs in
    let busy = ref (fastest (fun p -> p.close_s)) in
    Array.iteri
      (fun i outcome ->
        let dt = fastest (fun p -> p.times.(i)) in
        busy := !busy +. dt;
        t.Tally.attempted <- t.Tally.attempted + 1;
        match outcome with
        | Booked ->
          Sample.add c.Tally.book dt;
          Sample.add c.Tally.reply dt
        | Refused | Answered -> Sample.add c.Tally.reply dt
        | Failed -> t.Tally.failed <- t.Tally.failed + 1)
      first.outcomes;
    t.Tally.coordinated <- t.Tally.coordinated + first.coordinated;
    t.Tally.coordination_max <- t.Tally.coordination_max + first.coordination_max;
    (Array.length first.outcomes, !busy)

(* Pass 0 runs whole rounds until another would end past its share of
   [seconds] (at least one round), or exactly [replay] rounds; the other
   passes repeat those rounds.  The share leaves a sixth of the run for
   checks and for passes slower than the first.  Returns the number of
   rounds. *)
let measure (s : Spec.inproc) (t : Tally.t) ~seed ~seconds ~traced ~replay =
  let runs = Hashtbl.create 16 in
  let pass i round =
    let r, dt = Tally.timed (fun () -> setup s ~seed ~round) in
    Sample.add t.Tally.setup dt;
    let p = run_pass t ~layers:(traced && i = 0) ~recover:(round = 0 && i = 0) r in
    Hashtbl.replace runs round (p :: Option.value ~default:[] (Hashtbl.find_opt runs round))
  in
  let t0 = Obs.Mclock.now_ns () in
  let share = seconds *. 5. /. 6. /. float_of_int s.Spec.passes in
  let rec first_pass n =
    pass 0 n;
    let elapsed = Obs.Mclock.elapsed_s t0 in
    match replay with
    | Some rounds -> if n + 1 < rounds then first_pass (n + 1) else rounds
    | None -> if elapsed +. (elapsed /. float_of_int (n + 1)) <= share then first_pass (n + 1) else n + 1
  in
  let rounds = first_pass 0 in
  for i = 1 to s.Spec.passes - 1 do
    for round = 0 to rounds - 1 do
      pass i round
    done
  done;
  (* At least [min_setups] set-up times to take the median of. *)
  for _ = Sample.count t.Tally.setup + 1 to min_setups do
    let (_ : round), dt = Tally.timed (fun () -> setup s ~seed ~round:0) in
    Sample.add t.Tally.setup dt
  done;
  let c = Tally.new_cycle t in
  let requests, busy =
    List.fold_left
      (fun (n, s) round ->
        let n', s' = combine t c ~round (Hashtbl.find runs round) in
        (n + n', s +. s'))
      (0, 0.)
      (List.init rounds Fun.id)
  in
  Sample.add c.Tally.rates (float_of_int requests /. busy);
  rounds
