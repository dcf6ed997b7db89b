(* Tests for the admission resource governor and the engine's behaviour
   under pressure: the Overloaded-vs-Rejected distinction (a budget
   blowup must never masquerade as a semantic rejection), the escalation
   ladder and its counters, deadline budgets, engine-level fault
   injection (poisoned refills, aborted write rechecks), and the chaos
   harness's survival/determinism contract. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Database = Relational.Database
module Qdb = Quantum.Qdb
module Governor = Quantum.Governor
module Metrics = Quantum.Metrics
module Rtxn = Quantum.Rtxn
module Flights = Workload.Flights
module Travel = Workload.Travel
module Fault = Workload.Fault
module Chaos = Workload.Chaos

let geometry rows = { Flights.flights = 1; rows_per_flight = rows; dest = "LA" }

let fresh_qdb ?config ?(rows = 2) () =
  let store = Flights.fresh_store (geometry rows) in
  Qdb.create ?config store

let user name = { Travel.name; partner = "-"; flight = 0 }
let submit ?governor qdb name = Qdb.submit ?governor qdb (Travel.plain_txn (user name))

(* Fill the one flight to seat capacity so the next admission's composed
   body is pigeonhole-unsatisfiable — the expensive check the squeeze
   tests lean on. *)
let fill_to_capacity qdb rows =
  List.iteri
    (fun i _ ->
      match submit qdb (Printf.sprintf "filler%d" i) with
      | Qdb.Committed _ -> ()
      | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "filler%d refused: %s" i r)
    (List.init (3 * rows) Fun.id)

let squeeze = Governor.make ~node_budget:1 ~max_retries:0 ~escalation:1 ()

(* -- Overloaded vs Rejected (the regression this PR pins) ------------------- *)

(* A budget-starved admission must come back [Overloaded] — previously
   [Too_many_nodes] was swallowed as unsatisfiable and surfaced as a
   plain rejection, poisoning the accept/reject statistics. *)
let test_overloaded_not_rejected () =
  let qdb = fresh_qdb ~rows:1 () in
  fill_to_capacity qdb 1;
  let before = Qdb.pending_count qdb in
  (match submit ~governor:squeeze qdb "late" with
   | Qdb.Overloaded reason ->
     Alcotest.(check bool) "reason mentions the budget" true
       (String.length reason > 0)
   | Qdb.Rejected r -> Alcotest.failf "budget exhaustion misreported as Rejected: %s" r
   | Qdb.Committed _ -> Alcotest.fail "overbooked under a 1-node budget");
  let m = Qdb.metrics qdb in
  Alcotest.(check int) "metrics.overloaded" 1 m.Metrics.overloaded;
  Alcotest.(check int) "metrics.rejected untouched" 0 m.Metrics.rejected;
  Alcotest.(check bool) "exhaustions counted" true (m.Metrics.governor_exhaustions > 0);
  (* Overloaded is side-effect-free: partitions, caches, WAL untouched. *)
  Alcotest.(check int) "pending unchanged" before (Qdb.pending_count qdb);
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb);
  (* The same transaction under the default governor gets the true
     verdict — here a genuine (pigeonhole) rejection. *)
  (match submit qdb "late" with
   | Qdb.Rejected _ -> ()
   | Qdb.Committed _ -> Alcotest.fail "overbooked"
   | Qdb.Overloaded r -> Alcotest.failf "default governor overloaded: %s" r);
  Alcotest.(check int) "real rejection counted" 1 (Qdb.metrics qdb).Metrics.rejected

(* An under-capacity admission still commits under a tiny budget: the
   witness-seeded incremental check needs almost no search. *)
let test_squeeze_spares_cheap_admissions () =
  let qdb = fresh_qdb ~rows:2 () in
  (match submit ~governor:squeeze qdb "early" with
   | Qdb.Committed _ -> ()
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "cheap admission refused: %s" r);
  Alcotest.(check int) "no overload" 0 (Qdb.metrics qdb).Metrics.overloaded

(* -- The degradation ladder ------------------------------------------------- *)

(* Base budget too small, escalation generous: the ladder's retries and
   the degraded full solve must rescue the admission and say so in the
   counters — the structured alternative to the old raw exception. *)
let test_ladder_escalates_to_verdict () =
  let qdb = fresh_qdb ~rows:1 () in
  fill_to_capacity qdb 1;
  let gov = Governor.make ~node_budget:1 ~max_retries:2 ~escalation:10_000 () in
  (match submit ~governor:gov qdb "late" with
   | Qdb.Rejected _ -> ()
   | Qdb.Committed _ -> Alcotest.fail "overbooked"
   | Qdb.Overloaded r -> Alcotest.failf "escalated ladder still overloaded: %s" r);
  let m = Qdb.metrics qdb in
  Alcotest.(check bool) "retries counted" true (m.Metrics.governor_retries > 0);
  Alcotest.(check int) "no overload outcome" 0 m.Metrics.overloaded

let test_ladder_degraded_full_solve () =
  let qdb = fresh_qdb ~rows:1 () in
  fill_to_capacity qdb 1;
  (* No retries: the only rung past the first attempt is the degraded
     full recompose, which the big escalation makes sufficient. *)
  let gov = Governor.make ~node_budget:1 ~max_retries:0 ~escalation:1_000_000 () in
  (match submit ~governor:gov qdb "late" with
   | Qdb.Rejected _ -> ()
   | Qdb.Committed _ -> Alcotest.fail "overbooked"
   | Qdb.Overloaded r -> Alcotest.failf "degraded full solve still overloaded: %s" r);
  let m = Qdb.metrics qdb in
  Alcotest.(check bool) "degraded full solve counted" true
    (m.Metrics.governor_degraded_full_solve > 0)

(* -- Deadline budget -------------------------------------------------------- *)

let test_deadline_overloads () =
  let qdb = fresh_qdb ~rows:1 () in
  fill_to_capacity qdb 1;
  (* A 1 ns deadline has always expired by the first stride check; the
     contended unsatisfiability proof cannot finish under it. *)
  let gov = Governor.make ~deadline_ns:1L ~max_retries:0 () in
  (match submit ~governor:gov qdb "late" with
   | Qdb.Overloaded reason ->
     Alcotest.(check bool) "deadline reason" true
       (String.length reason > 0)
   | Qdb.Rejected _ -> Alcotest.fail "deadline expiry misreported as Rejected"
   | Qdb.Committed _ -> Alcotest.fail "overbooked");
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb)

(* -- Governor arithmetic ---------------------------------------------------- *)

let test_node_budget_escalation_saturates () =
  let gov = Governor.make ~node_budget:100 ~escalation:8 () in
  let charge = Governor.arm gov in
  let budget retry = Governor.node_budget charge ~default_limit:2_000_000 ~retry in
  Alcotest.(check int) "rung 0" 100 (budget 0);
  Alcotest.(check int) "rung 1" 800 (budget 1);
  Alcotest.(check int) "rung 2" 6_400 (budget 2);
  Alcotest.(check bool) "deep rungs saturate positive" true (budget 40 > 0);
  (* No explicit budget: inherit the engine's node limit. *)
  let inherit_charge = Governor.arm Governor.default in
  Alcotest.(check int) "default inherits engine limit" 2_000_000
    (Governor.node_budget inherit_charge ~default_limit:2_000_000 ~retry:0)

let test_backoff_is_bounded () =
  (* A pathological base backoff must be capped (50 ms) — and a zero
     base (the default) must not sleep at all. *)
  let charge = Governor.arm (Governor.make ~backoff_ns:10_000_000_000L ()) in
  let t0 = Obs.Mclock.now_ns () in
  Governor.backoff charge ~salt:7 ~retry:3;
  let slept_ms = Int64.to_float (Int64.sub (Obs.Mclock.now_ns ()) t0) /. 1e6 in
  Alcotest.(check bool) "capped near 50ms" true (slept_ms < 500.);
  let free = Governor.arm Governor.default in
  let t1 = Obs.Mclock.now_ns () in
  Governor.backoff free ~salt:7 ~retry:3;
  let zero_ms = Int64.to_float (Int64.sub (Obs.Mclock.now_ns ()) t1) /. 1e6 in
  Alcotest.(check bool) "zero base does not sleep" true (zero_ms < 5.)

(* -- Telemetry exposure ----------------------------------------------------- *)

let test_registry_exposes_governor_counters () =
  let qdb = fresh_qdb ~rows:1 () in
  fill_to_capacity qdb 1;
  ignore (submit ~governor:squeeze qdb "late");
  let reg = Qdb.registry qdb in
  let counter name =
    match Obs.Registry.find reg name with
    | Some (Obs.Registry.Counter n) -> n
    | _ -> Alcotest.failf "registry lacks counter %s" name
  in
  Alcotest.(check int) "qdb.admission.overloaded" 1 (counter "qdb.admission.overloaded");
  Alcotest.(check bool) "qdb.governor.exhaustions" true
    (counter "qdb.governor.exhaustions" > 0);
  Alcotest.(check bool) "qdb.governor.degraded_full_solve" true
    (counter "qdb.governor.degraded_full_solve" >= 0);
  Alcotest.(check bool) "qdb.governor.retries" true (counter "qdb.governor.retries" >= 0);
  (* The per-outcome latency split and the counters survive both text
     exporters. *)
  let prom = Obs.Export.prometheus reg in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus overloaded counter" true
    (contains prom "qdb_admission_overloaded");
  Alcotest.(check bool) "prometheus overload latency" true
    (contains prom "qdb_submit_overload_latency");
  let json = Obs.Export.json_snapshot_string reg in
  Alcotest.(check bool) "json overloaded counter" true
    (contains json "qdb.admission.overloaded")

(* -- Engine-level fault injection ------------------------------------------- *)

(* A refill job failing: the round is abandoned wholesale, the failure
   counted, and the engine keeps admitting. *)
let test_poisoned_refill_absorbed () =
  let config = { Qdb.default_config with Qdb.cache_capacity = 3 } in
  let qdb = fresh_qdb ~config ~rows:2 () in
  Qdb.set_fault_injector qdb (fun ~kind ~fanout:_ ~job:_ ->
      if kind = "refill" then raise (Fault.Injected "poisoned refill"));
  (match submit qdb "a" with
   | Qdb.Committed _ -> ()
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "submit under poison: %s" r);
  let m = Qdb.metrics qdb in
  Alcotest.(check bool) "refill failures counted" true (m.Metrics.refill_failures > 0);
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb);
  Qdb.clear_fault_injector qdb;
  (match submit qdb "b" with
   | Qdb.Committed _ -> ()
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "engine unusable after poison: %s" r);
  ignore (Qdb.ground_all qdb);
  Alcotest.(check int) "both grounded" 2
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"))

(* A recheck job failing mid-revalidation: the blind write must be
   rolled back and refused conservatively, leaving no half-applied ops. *)
let test_poisoned_recheck_rolls_back () =
  let qdb = fresh_qdb ~rows:2 () in
  (match submit qdb "a" with
   | Qdb.Committed _ -> ()
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "setup: %s" r);
  let seats_before =
    Relational.Table.cardinality (Database.table (Qdb.db qdb) "Available")
  in
  Qdb.set_fault_injector qdb (fun ~kind ~fanout:_ ~job:_ ->
      if kind = "recheck" then raise (Fault.Injected "poisoned recheck"));
  let op = Database.Delete ("Available", Tuple.of_list [ Value.Int 0; Value.Int 0 ]) in
  (match Qdb.write qdb [ op ] with
   | Error reason ->
     Alcotest.(check bool) "refusal names the abort" true
       (String.length reason >= 18 && String.sub reason 0 18 = "write revalidation")
   | Ok () -> Alcotest.fail "poisoned revalidation accepted a write");
  Alcotest.(check int) "tentative delete rolled back" seats_before
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Available"));
  Alcotest.(check int) "write counted as rejected" 1
    (Qdb.metrics qdb).Metrics.writes_rejected;
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb);
  (* Same write sails through once the fault clears. *)
  Qdb.clear_fault_injector qdb;
  (match Qdb.write qdb [ op ] with
   | Ok () -> ()
   | Error r -> Alcotest.failf "clean write refused: %s" r)

(* Fault-round atomicity: a fault at job 1 of a round must undo job 0's
   work too, not just its own.  Two one-row flights give two partitions;
   capacity 3 with every setup refill poisoned keeps both below
   capacity, so the commit's refill round has two jobs. *)

let two_flight_qdb () =
  let store =
    Flights.fresh_store { Flights.flights = 2; rows_per_flight = 1; dest = "LA" }
  in
  (store, Qdb.create ~config:{ Qdb.default_config with Qdb.cache_capacity = 3 } store)

let on_flight flight name = { Travel.name; partner = "-"; flight }

let book_a_and_b qdb =
  List.iter
    (fun u ->
      match Qdb.submit qdb (Travel.plain_txn u) with
      | Qdb.Committed _ -> ()
      | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "setup: %s" r)
    [ on_flight 0 "a"; on_flight 1 "b" ]

let witness_keys qdb =
  List.map
    (fun (pid, ws) -> (pid, List.map Logic.Subst.bindings ws))
    (Qdb.partition_witnesses qdb)

let inject_at ~kind ~job:target calls =
  fun ~kind:k ~fanout:_ ~job ->
    if k = kind then begin
      calls := job :: !calls;
      if job = target then raise (Fault.Injected (Printf.sprintf "poisoned job %d" job))
    end

let test_refill_fault_at_job_one () =
  let _, qdb = two_flight_qdb () in
  Qdb.set_fault_injector qdb (fun ~kind ~fanout:_ ~job:_ ->
      if kind = "refill" then raise (Fault.Injected "setup"));
  book_a_and_b qdb;
  let pr =
    match Qdb.prepare qdb (Travel.plain_txn (on_flight 0 "c")) with
    | Ok pr -> pr
    | Error _ -> Alcotest.fail "prepare refused"
  in
  let before = witness_keys qdb in
  Alcotest.(check int) "two partitions" 2 (List.length before);
  List.iter
    (fun (_, ws) ->
      Alcotest.(check bool) "below capacity" true (List.length ws < 3))
    before;
  let failures = (Qdb.metrics qdb).Metrics.refill_failures in
  let calls = ref [] in
  Qdb.set_fault_injector qdb (inject_at ~kind:"refill" ~job:1 calls);
  (match Qdb.commit_prepared qdb pr with
   | Qdb.Committed _ -> ()
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "commit: %s" r);
  Alcotest.(check (list int)) "job 0 passed, job 1 raised" [ 1; 0 ] !calls;
  Alcotest.(check bool) "no partition's witnesses changed" true (witness_keys qdb = before);
  Alcotest.(check int) "one abandoned round" (failures + 1)
    (Qdb.metrics qdb).Metrics.refill_failures;
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb)

let test_recheck_fault_at_job_one () =
  let store, qdb = two_flight_qdb () in
  book_a_and_b qdb;
  (* Refills filled both caches with all three seats of their flight, so
     deleting seat 0 of each kills one witness per partition: job 0's
     recheck would shrink its cache if it were installed. *)
  let before = witness_keys qdb in
  List.iter
    (fun (_, ws) -> Alcotest.(check int) "cache holds every seat" 3 (List.length ws))
    before;
  let seat f = Database.Delete ("Available", Tuple.of_list [ Value.Int f; Value.Int 0 ]) in
  let available () =
    Relational.Table.cardinality (Database.table (Qdb.db qdb) "Available")
  in
  let seats_before = available () in
  let records_before = (Relational.Store.wal_stats store).Relational.Wal.records in
  let calls = ref [] in
  Qdb.set_fault_injector qdb (inject_at ~kind:"recheck" ~job:1 calls);
  (match Qdb.write qdb [ seat 0; seat 1 ] with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "write accepted under a poisoned recheck");
  Alcotest.(check (list int)) "job 0 passed, job 1 raised" [ 1; 0 ] !calls;
  Alcotest.(check bool) "no partition's witnesses changed" true (witness_keys qdb = before);
  Alcotest.(check int) "write rolled back" seats_before (available ());
  Alcotest.(check int) "no WAL record" records_before
    (Relational.Store.wal_stats store).Relational.Wal.records;
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb)

(* A refused write installs no partition's recheck outcome.  Deleting all
   of flight 1 refuses the write (its pending booking has no seat left),
   while flight 0's recheck would shrink its cache to the two surviving
   seats; the rollback restores seat 0, so that shrunk cache must never
   be installed. *)
let test_refused_write_installs_nothing () =
  let _, qdb = two_flight_qdb () in
  book_a_and_b qdb;
  let before = witness_keys qdb in
  let del f s = Database.Delete ("Available", Tuple.of_list [ Value.Int f; Value.Int s ]) in
  (match Qdb.write qdb [ del 0 0; del 1 0; del 1 1; del 1 2 ] with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "write accepted although flight 1 has a pending booking");
  Alcotest.(check bool) "no partition's witnesses changed" true (witness_keys qdb = before);
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb)

(* -- Witness invalidation and CHOOSE exhaustion ----------------------------- *)

(* A blind write that kills every seat a pending CHOOSE could take must
   be refused (it would empty the possible-world set), with the
   invalidation visible in the cache stats; the pending set stays whole. *)
let test_witness_invalidation_refused () =
  let qdb = fresh_qdb ~rows:1 () in
  List.iter (fun n -> ignore (submit qdb n)) [ "a"; "b"; "c" ];
  let pending_before = Qdb.pending_count qdb in
  let delete_seat s =
    Database.Delete ("Available", Tuple.of_list [ Value.Int 0; Value.Int s ])
  in
  (match Qdb.write qdb [ delete_seat 0 ] with
   | Error reason ->
     Alcotest.(check bool) "conflict reason" true (String.length reason > 0)
   | Ok () -> Alcotest.fail "write emptied a pending CHOOSE's world set");
  Alcotest.(check int) "pending untouched" pending_before (Qdb.pending_count qdb);
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb);
  ignore (Qdb.ground_all qdb);
  Alcotest.(check int) "all three still ground" 3
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"))

(* CHOOSE over an exhausted domain: no seats at all — immediate, genuine
   rejection with the counter and reason to match, state untouched. *)
let test_choose_exhaustion_rejects () =
  let qdb = fresh_qdb ~rows:1 () in
  fill_to_capacity qdb 1;
  ignore (Qdb.ground_all qdb);
  (* Every seat is now booked and gone from Available. *)
  (match submit qdb "late" with
   | Qdb.Rejected reason ->
     Alcotest.(check bool) "has a reason" true (String.length reason > 0)
   | Qdb.Committed _ -> Alcotest.fail "booked a seat that does not exist"
   | Qdb.Overloaded r -> Alcotest.failf "trivial unsat reported overloaded: %s" r);
  let m = Qdb.metrics qdb in
  Alcotest.(check int) "qdb.rejected" 1 m.Metrics.rejected;
  Alcotest.(check int) "no overload" 0 m.Metrics.overloaded;
  Alcotest.(check int) "nothing pending" 0 (Qdb.pending_count qdb);
  Alcotest.(check bool) "invariant holds" true (Qdb.invariant_holds qdb)

(* -- Latency split ---------------------------------------------------------- *)

let test_latency_split_by_outcome () =
  let qdb = fresh_qdb ~rows:1 () in
  fill_to_capacity qdb 1;
  ignore (submit qdb "real-reject");
  ignore (submit ~governor:squeeze qdb "starved");
  let m = Qdb.metrics qdb in
  let count h = Obs.Histogram.count h in
  Alcotest.(check int) "accepts recorded" 3 (count m.Metrics.accept_latency);
  Alcotest.(check int) "rejects recorded" 1 (count m.Metrics.reject_latency);
  Alcotest.(check int) "overloads recorded" 1 (count m.Metrics.overload_latency);
  Alcotest.(check int) "total = split sum"
    (count m.Metrics.submit_latency)
    (count m.Metrics.accept_latency + count m.Metrics.reject_latency
     + count m.Metrics.overload_latency)

(* -- Chaos harness ---------------------------------------------------------- *)

let test_chaos_cycles_clean () =
  let s = Chaos.run ~cycles:4 ~seed:97 () in
  (* One per cycle: inline vs actor-routed. *)
  Alcotest.(check int) "determinism checks ran" 4 s.Chaos.determinism_checks;
  Alcotest.(check bool) "submissions happened" true (s.Chaos.submissions > 0);
  (match s.Chaos.violations with
   | [] -> ()
   | (cycle, v) :: _ -> Alcotest.failf "chaos violation in cycle %d: %s" cycle v);
  (* The same seed replays to the same summary. *)
  let s' = Chaos.run ~cycles:4 ~seed:97 () in
  Alcotest.(check bool) "summary replays identically" true (s = s')

let test_chaos_cycle_deterministic_across_domains () =
  let a = Chaos.run_cycle ~seed:424242 () in
  let b = Chaos.run_cycle ~actors:3 ~seed:424242 () in
  Alcotest.(check (list string)) "event traces identical" a.Chaos.events b.Chaos.events;
  Alcotest.(check (list string)) "violations identical (and empty)" [] a.Chaos.violations

let suite =
  [ Alcotest.test_case "overloaded is not rejected" `Quick test_overloaded_not_rejected;
    Alcotest.test_case "squeeze spares cheap admissions" `Quick
      test_squeeze_spares_cheap_admissions;
    Alcotest.test_case "ladder escalates to a verdict" `Quick test_ladder_escalates_to_verdict;
    Alcotest.test_case "ladder degraded full solve" `Quick test_ladder_degraded_full_solve;
    Alcotest.test_case "deadline expiry overloads" `Quick test_deadline_overloads;
    Alcotest.test_case "node budget escalation saturates" `Quick
      test_node_budget_escalation_saturates;
    Alcotest.test_case "backoff bounded and zero-default" `Quick test_backoff_is_bounded;
    Alcotest.test_case "registry exposes governor counters" `Quick
      test_registry_exposes_governor_counters;
    Alcotest.test_case "poisoned refill absorbed" `Quick test_poisoned_refill_absorbed;
    Alcotest.test_case "poisoned recheck rolls back" `Quick test_poisoned_recheck_rolls_back;
    Alcotest.test_case "refill fault at job 1 installs nothing" `Quick
      test_refill_fault_at_job_one;
    Alcotest.test_case "recheck fault at job 1 installs nothing" `Quick
      test_recheck_fault_at_job_one;
    Alcotest.test_case "refused write installs nothing" `Quick
      test_refused_write_installs_nothing;
    Alcotest.test_case "witness invalidation refused" `Quick test_witness_invalidation_refused;
    Alcotest.test_case "choose exhaustion rejects" `Quick test_choose_exhaustion_rejects;
    Alcotest.test_case "latency split by outcome" `Quick test_latency_split_by_outcome;
    Alcotest.test_case "chaos: short run clean + replayable" `Slow test_chaos_cycles_clean;
    Alcotest.test_case "chaos: cycle identical with and without actors" `Slow
      test_chaos_cycle_deterministic_across_domains;
  ]
