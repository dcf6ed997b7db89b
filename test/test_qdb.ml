(* Tests for the quantum database engine: admission, reads under the three
   policies, blind writes, serializability modes, the k-bound, partner
   triggers and partitioning. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Database = Relational.Database
module Store = Relational.Store
module Wal = Relational.Wal
module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Flights = Workload.Flights
module Travel = Workload.Travel
open Logic

let geometry rows flights = { Flights.flights; rows_per_flight = rows; dest = "LA" }

let fresh_qdb ?config ?(rows = 2) ?(flights = 1) () =
  let store = Flights.fresh_store (geometry rows flights) in
  Qdb.create ?config store

let user name partner flight = { Travel.name; partner; flight }

let committed = function
  | Qdb.Committed _ -> true
  | Qdb.Rejected _ | Qdb.Overloaded _ -> false

let test_commit_until_full () =
  let qdb = fresh_qdb ~rows:1 () in
  (* 3 seats on the single flight; plain bookings. *)
  let submit name = Qdb.submit qdb (Travel.plain_txn (user name "-" 0)) in
  Alcotest.(check bool) "1st" true (committed (submit "a"));
  Alcotest.(check bool) "2nd" true (committed (submit "b"));
  Alcotest.(check bool) "3rd" true (committed (submit "c"));
  Alcotest.(check bool) "4th rejected" false (committed (submit "d"));
  Alcotest.(check int) "three pending" 3 (Qdb.pending_count qdb);
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb);
  (* Nothing is in Bookings yet: assignment is deferred. *)
  Alcotest.(check int) "bookings empty pre-grounding" 0
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"));
  ignore (Qdb.ground_all qdb);
  Alcotest.(check int) "bookings after grounding" 3
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"));
  Alcotest.(check int) "no pending left" 0 (Qdb.pending_count qdb)

let test_rejection_leaves_state_intact () =
  let qdb = fresh_qdb ~rows:1 () in
  List.iter (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n "-" 0)))) [ "a"; "b"; "c" ];
  let before_pending = Qdb.pending_count qdb in
  (match Qdb.submit qdb (Travel.plain_txn (user "d" "-" 0)) with
   | Qdb.Rejected _ | Qdb.Overloaded _ -> ()
   | Qdb.Committed _ -> Alcotest.fail "overbooked");
  Alcotest.(check int) "pending unchanged" before_pending (Qdb.pending_count qdb);
  Alcotest.(check bool) "invariant still holds" true (Qdb.invariant_holds qdb);
  (* Earlier commitments still ground fine. *)
  ignore (Qdb.ground_all qdb);
  Alcotest.(check int) "three booked" 3
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"))

let test_read_collapse_and_repeatability () =
  let config = { Qdb.default_config with read_policy = Qdb.Collapse } in
  let qdb = fresh_qdb ~config ~rows:2 () in
  let u = user "mickey" "-" 0 in
  ignore (Qdb.submit qdb (Travel.plain_txn u));
  Alcotest.(check int) "pending before read" 1 (Qdb.pending_count qdb);
  let answers = Qdb.read qdb (Travel.seat_query u) in
  Alcotest.(check int) "one seat answer" 1 (List.length answers);
  Alcotest.(check int) "read collapsed the pending txn" 0 (Qdb.pending_count qdb);
  (* Read repeatability: the same query returns the same tuple. *)
  let answers2 = Qdb.read qdb (Travel.seat_query u) in
  Alcotest.(check bool) "repeatable" true
    (List.equal Tuple.equal answers answers2)

let test_read_impact_is_selective () =
  let qdb = fresh_qdb ~rows:2 ~flights:2 () in
  let u0 = user "a" "-" 0 and u1 = user "b" "-" 1 in
  ignore (Qdb.submit qdb (Travel.plain_txn u0));
  ignore (Qdb.submit qdb (Travel.plain_txn u1));
  Alcotest.(check int) "two pending" 2 (Qdb.pending_count qdb);
  (* Reading a's seat must not collapse b's booking. *)
  ignore (Qdb.read qdb (Travel.seat_query u0));
  Alcotest.(check int) "only a collapsed" 1 (Qdb.pending_count qdb);
  let remaining = Qdb.pending qdb in
  Alcotest.(check string) "b still pending" "b" (List.hd remaining).Rtxn.label

let test_read_peek_fixes_nothing () =
  let config = { Qdb.default_config with read_policy = Qdb.Peek } in
  let qdb = fresh_qdb ~config ~rows:2 () in
  let u = user "mickey" "-" 0 in
  ignore (Qdb.submit qdb (Travel.plain_txn u));
  let answers = Qdb.read qdb (Travel.seat_query u) in
  Alcotest.(check int) "peek sees a planned seat" 1 (List.length answers);
  Alcotest.(check int) "still pending" 1 (Qdb.pending_count qdb);
  Alcotest.(check int) "extensional bookings untouched" 0
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"))

let test_read_expose_returns_possible_values () =
  let config = { Qdb.default_config with read_policy = Qdb.Expose } in
  let qdb = fresh_qdb ~config ~rows:1 () in
  (* 3 free seats; one pending booking: the seat read has 3 possible
     answers across worlds. *)
  let u = user "mickey" "-" 0 in
  ignore (Qdb.submit qdb (Travel.plain_txn u));
  let answers = Qdb.read qdb (Travel.seat_query u) in
  Alcotest.(check int) "three possible seats" 3 (List.length answers);
  Alcotest.(check int) "still pending" 1 (Qdb.pending_count qdb)

let test_blind_write_admission () =
  let qdb = fresh_qdb ~rows:1 () in
  (* Three seats, three pending bookings: every seat is spoken for. *)
  List.iter (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n "-" 0)))) [ "a"; "b"; "c" ];
  (* An external write stealing a seat must be refused. *)
  let steal = [ Database.Delete ("Available", Tuple.of_list [ Value.Int 0; Value.Int 0 ]) ] in
  Alcotest.(check bool) "conflicting write refused" true (Result.is_error (Qdb.write qdb steal));
  Alcotest.(check bool) "seat still there" true
    (Database.mem_tuple (Qdb.db qdb) "Available" (Tuple.of_list [ Value.Int 0; Value.Int 0 ]));
  (* A write the pending set can absorb is accepted: add a seat, then
     stealing one is fine. *)
  let add = [ Database.Insert ("Available", Tuple.of_list [ Value.Int 0; Value.Int 99 ]) ] in
  Alcotest.(check bool) "benign write ok" true (Qdb.write qdb add = Ok ());
  Alcotest.(check bool) "now stealing is absorbable" true (Qdb.write qdb steal = Ok ());
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb);
  ignore (Qdb.ground_all qdb);
  Alcotest.(check int) "all grounded" 3
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"))

let test_strict_grounds_prefix () =
  let config = { Qdb.default_config with serializability = Qdb.Strict } in
  let qdb = fresh_qdb ~config ~rows:2 () in
  List.iter (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n "-" 0)))) [ "a"; "b"; "c" ];
  (* Grounding c (arrival position 2) must ground a and b first. *)
  let groundings = Qdb.ground qdb 2 in
  Alcotest.(check int) "whole prefix grounded" 3 (List.length groundings);
  Alcotest.(check int) "none pending" 0 (Qdb.pending_count qdb)

let test_semantic_grounds_only_target () =
  let config = { Qdb.default_config with serializability = Qdb.Semantic } in
  let qdb = fresh_qdb ~config ~rows:2 () in
  List.iter (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n "-" 0)))) [ "a"; "b"; "c" ];
  let groundings = Qdb.ground qdb 2 in
  Alcotest.(check int) "only the target grounded" 1 (List.length groundings);
  Alcotest.(check int) "two still pending" 2 (Qdb.pending_count qdb);
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb);
  ignore (Qdb.ground_all qdb);
  Alcotest.(check int) "rest ground later" 3
    (Relational.Table.cardinality (Database.table (Qdb.db qdb) "Bookings"))

let test_k_bound_forces_grounding () =
  let config = { Qdb.default_config with k = 2 } in
  let qdb = fresh_qdb ~config ~rows:2 () in
  List.iter (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n "-" 0)))) [ "a"; "b"; "c"; "d" ];
  Alcotest.(check bool) "pending capped at k" true (Qdb.max_partition_size qdb <= 2);
  Alcotest.(check bool) "forced groundings happened" true
    ((Qdb.metrics qdb).Quantum.Metrics.forced_groundings > 0);
  (* The oldest were grounded: their bookings exist. *)
  Alcotest.(check bool) "oldest booked" true (Flights.booking_of (Qdb.db qdb) "a" <> None)

let test_partition_independence () =
  let qdb = fresh_qdb ~rows:2 ~flights:3 () in
  List.iteri
    (fun i f -> ignore (Qdb.submit qdb (Travel.plain_txn (user (Printf.sprintf "u%d" i) "-" f))))
    [ 0; 1; 2; 0; 1; 2 ];
  (* One partition per flight. *)
  Alcotest.(check int) "three partitions" 3 (Qdb.partition_count qdb);
  Alcotest.(check int) "each holds two" 2 (Qdb.max_partition_size qdb)

let test_partition_merge_on_bridging_txn () =
  let qdb = fresh_qdb ~rows:2 ~flights:2 () in
  ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-" 0)));
  ignore (Qdb.submit qdb (Travel.plain_txn (user "b" "-" 1)));
  Alcotest.(check int) "two partitions" 2 (Qdb.partition_count qdb);
  (* A flight-agnostic booking unifies with both partitions. *)
  let f = Term.V (Term.fresh_var "f") and s = Term.V (Term.fresh_var "s") in
  let bridging =
    Rtxn.make ~label:"c"
      ~hard:[ Atom.make "Available" [ f; s ] ]
      ~updates:
        [ Rtxn.Del (Atom.make "Available" [ f; s ]);
          Rtxn.Ins (Atom.make "Bookings" [ Term.str "c"; f; s ]) ]
      ()
  in
  ignore (Qdb.submit qdb bridging);
  Alcotest.(check int) "merged into one" 1 (Qdb.partition_count qdb);
  Alcotest.(check bool) "merge counted" true
    ((Qdb.metrics qdb).Quantum.Metrics.partition_merges > 0)

let test_partner_trigger () =
  let qdb = fresh_qdb ~rows:2 () in
  let a = user "a" "b" 0 and b = user "b" "a" 0 in
  ignore (Qdb.submit qdb (Travel.entangled_txn a));
  Alcotest.(check int) "a waits for b" 1 (Qdb.pending_count qdb);
  ignore (Qdb.submit qdb (Travel.entangled_txn b));
  (* Both grounded on partner arrival, adjacent seats. *)
  Alcotest.(check int) "both grounded" 0 (Qdb.pending_count qdb);
  (match Flights.booking_of (Qdb.db qdb) "a", Flights.booking_of (Qdb.db qdb) "b" with
   | Some (f1, s1), Some (f2, s2) ->
     Alcotest.(check int) "same flight" f1 f2;
     Alcotest.(check bool) "adjacent" true (Flights.seats_adjacent (Qdb.db qdb) s1 s2)
   | _ -> Alcotest.fail "both should be booked")

(* Goofy already holds a concrete seat; Mickey's optional adjacency must
   bind to it — Figure 1's scenario. *)
let test_figure1_scenario () =
  let store = Flights.fresh_store (geometry 2 1) in
  let qdb = Qdb.create store in
  (* Goofy books seat 1 on flight 0 directly. *)
  Alcotest.(check bool) "goofy booked" true
    (Travel.book store { Travel.name = "goofy"; partner = "mickey"; flight = 0 } 1);
  (* Mickey's entangled request must land adjacent to seat 1 (seat 0 or 2). *)
  let mickey = user "mickey" "goofy" 0 in
  ignore (Qdb.submit qdb (Travel.entangled_txn mickey));
  ignore (Qdb.ground qdb 0);
  (match Flights.booking_of (Qdb.db qdb) "mickey" with
   | Some (0, s) ->
     Alcotest.(check bool) "adjacent to goofy" true (Flights.seats_adjacent (Qdb.db qdb) s 1)
   | _ -> Alcotest.fail "mickey should be booked on flight 0")

let test_group_booking () =
  (* A family of three books in one transaction; with free rows the
     OPTIONAL full-row preference must hold. *)
  let qdb = fresh_qdb ~rows:3 () in
  let members = [ "ma"; "pa"; "kid" ] in
  (match Qdb.submit qdb (Travel.group_txn ~members ~flight:0 ()) with
   | Qdb.Committed id -> ignore (Qdb.ground qdb id)
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "group rejected: %s" r);
  Alcotest.(check bool) "family in one row" true
    (Travel.group_coordinated (Qdb.db qdb) members);
  (* Group of two behaves like a couple. *)
  (match Qdb.submit qdb (Travel.group_txn ~members:[ "x"; "y" ] ~flight:0 ()) with
   | Qdb.Committed id -> ignore (Qdb.ground qdb id)
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "pair rejected: %s" r);
  Alcotest.(check bool) "pair adjacent" true (Travel.group_coordinated (Qdb.db qdb) [ "x"; "y" ])

let test_group_degrades_gracefully () =
  (* One row of three with the middle seat pre-booked: a family of three
     still commits (hard body only needs three seats across the flight),
     but cannot sit together. *)
  let qdb = fresh_qdb ~rows:2 () in
  let store_booked =
    Qdb.write qdb
      [ Relational.Database.Delete
          ("Available", Relational.Tuple.of_list [ Value.Int 0; Value.Int 1 ]);
        Relational.Database.Insert
          ("Bookings", Relational.Tuple.of_list [ Value.Str "stranger"; Value.Int 0; Value.Int 1 ]);
      ]
  in
  Alcotest.(check bool) "stranger takes middle seat of row 0" true (store_booked = Ok ());
  let members = [ "ma"; "pa"; "kid" ] in
  (match Qdb.submit qdb (Travel.group_txn ~members ~flight:0 ()) with
   | Qdb.Committed id ->
     ignore (Qdb.ground qdb id);
     (* The full second row is free: the family should take it. *)
     Alcotest.(check bool) "family uses the intact row" true
       (Travel.group_coordinated (Qdb.db qdb) members)
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "group rejected: %s" r);
  (* Now only fragmented seats remain; a second family commits but cannot
     chain. *)
  (match Qdb.submit qdb (Travel.group_txn ~members:[ "q1"; "q2" ] ~flight:0 ()) with
   | Qdb.Committed id ->
     ignore (Qdb.ground qdb id);
     Alcotest.(check bool) "second group seated but split" true
       (Workload.Flights.booking_of (Qdb.db qdb) "q1" <> None
        && Workload.Flights.booking_of (Qdb.db qdb) "q2" <> None
        && not (Travel.group_coordinated (Qdb.db qdb) [ "q1"; "q2" ]))
   | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "second group rejected: %s" r)

let test_backend_limit_one () =
  let config = { Qdb.default_config with backend = Qdb.Limit_one_plan 3 } in
  let qdb = fresh_qdb ~config ~rows:1 () in
  let submit n = Qdb.submit qdb (Travel.plain_txn (user n "-" 0)) in
  Alcotest.(check bool) "commits" true (committed (submit "a") && committed (submit "b"));
  Alcotest.(check bool) "rejects when full" false
    (committed (submit "c") && committed (submit "d"));
  ignore (Qdb.ground_all qdb);
  Alcotest.(check bool) "grounded fine" true (Flights.booking_of (Qdb.db qdb) "a" <> None)

(* LIMIT-1 admissions run under the governor: on an empty 30-row flight
   the composed body's DNF grows with every pending booking, and without a
   node budget the sixth booking already searches for tens of seconds.
   With a small budget each such booking is [Overloaded] at once and
   leaves the pending set and the log as they were. *)
let test_limit_one_governed () =
  let config = { Qdb.default_config with backend = Qdb.Limit_one_plan 3 } in
  let store = Flights.fresh_store (geometry 30 1) in
  let qdb = Qdb.create ~config store in
  let governor = Quantum.Governor.make ~node_budget:1_000 () in
  let wal_records () = (Store.wal_stats store).Wal.records in
  let overloaded = ref 0 in
  for i = 1 to 7 do
    let pending = Qdb.pending_count qdb and records = wal_records () in
    match Qdb.submit ~governor qdb (Travel.plain_txn (user (Printf.sprintf "u%d" i) "-" 0)) with
    | Qdb.Committed _ -> ()
    | Qdb.Rejected r -> Alcotest.failf "booking %d rejected with 90 free seats: %s" i r
    | Qdb.Overloaded _ ->
      incr overloaded;
      Alcotest.(check int) (Printf.sprintf "booking %d: pending unchanged" i) pending
        (Qdb.pending_count qdb);
      Alcotest.(check int) (Printf.sprintf "booking %d: no WAL record" i) records (wal_records ())
  done;
  Alcotest.(check bool) "the budget ran out" true (!overloaded > 0)

let suite =
  [ Alcotest.test_case "commit until full" `Quick test_commit_until_full;
    Alcotest.test_case "rejection leaves state intact" `Quick test_rejection_leaves_state_intact;
    Alcotest.test_case "read collapse + repeatability" `Quick test_read_collapse_and_repeatability;
    Alcotest.test_case "read impact selective" `Quick test_read_impact_is_selective;
    Alcotest.test_case "read peek" `Quick test_read_peek_fixes_nothing;
    Alcotest.test_case "read expose" `Quick test_read_expose_returns_possible_values;
    Alcotest.test_case "blind write admission" `Quick test_blind_write_admission;
    Alcotest.test_case "strict grounds prefix" `Quick test_strict_grounds_prefix;
    Alcotest.test_case "semantic grounds target" `Quick test_semantic_grounds_only_target;
    Alcotest.test_case "k-bound forces grounding" `Quick test_k_bound_forces_grounding;
    Alcotest.test_case "partition independence" `Quick test_partition_independence;
    Alcotest.test_case "partition merge" `Quick test_partition_merge_on_bridging_txn;
    Alcotest.test_case "partner trigger" `Quick test_partner_trigger;
    Alcotest.test_case "Figure 1 scenario" `Quick test_figure1_scenario;
    Alcotest.test_case "group booking" `Quick test_group_booking;
    Alcotest.test_case "group degrades gracefully" `Quick test_group_degrades_gracefully;
    Alcotest.test_case "limit-one backend" `Quick test_backend_limit_one;
    Alcotest.test_case "limit-one admissions are governed" `Quick test_limit_one_governed;
  ]
