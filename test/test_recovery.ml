(* Crash-recovery tests (paper Section 4, "Recovery"): pending resource
   transactions survive a crash through the pending-transactions table;
   the rebuilt engine has the same pending set, keeps the invariant, and
   can still ground everything.  Includes failure injection around the
   commit point. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Database = Relational.Database
module Store = Relational.Store
module Wal = Relational.Wal
module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Flights = Workload.Flights
module Travel = Workload.Travel

let geometry rows = { Flights.flights = 1; rows_per_flight = rows; dest = "LA" }
let user name partner = { Travel.name; partner; flight = 0 }

let test_recover_pending () =
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend (geometry 2) in
  let qdb = Qdb.create store in
  List.iter
    (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n "-"))))
    [ "a"; "b"; "c" ];
  ignore (Qdb.ground qdb 0);
  Alcotest.(check int) "two pending pre-crash" 2 (Qdb.pending_count qdb);
  (* Crash: all in-memory state gone; recover from the log. *)
  let qdb' = Qdb.recover backend in
  Alcotest.(check int) "two pending post-crash" 2 (Qdb.pending_count qdb');
  Alcotest.(check bool) "invariant restored" true (Qdb.invariant_holds qdb');
  let labels = List.map (fun t -> t.Rtxn.label) (Qdb.pending qdb') |> List.sort String.compare in
  Alcotest.(check (list string)) "same pending transactions" [ "b"; "c" ] labels;
  (* Grounded booking survived. *)
  Alcotest.(check bool) "a's booking durable" true (Flights.booking_of (Qdb.db qdb') "a" <> None);
  (* The recovered engine still grounds everything. *)
  ignore (Qdb.ground_all qdb');
  Alcotest.(check int) "all booked" 3
    (Relational.Table.cardinality (Database.table (Qdb.db qdb') "Bookings"));
  Alcotest.(check int) "no pending" 0 (Qdb.pending_count qdb')

let test_recover_is_idempotent () =
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend (geometry 2) in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
  let once = Qdb.recover backend in
  let twice = Qdb.recover backend in
  Alcotest.(check int) "same pending count" (Qdb.pending_count once) (Qdb.pending_count twice);
  Alcotest.(check bool) "same database" true (Database.equal (Qdb.db once) (Qdb.db twice))

let test_recovered_ids_do_not_collide () =
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend (geometry 2) in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
  ignore (Qdb.submit qdb (Travel.plain_txn (user "b" "-")));
  let qdb' = Qdb.recover backend in
  (* New submissions must not collide with recovered ids. *)
  (match Qdb.submit qdb' (Travel.plain_txn (user "c" "-")) with
   | Qdb.Committed id -> Alcotest.(check bool) "fresh id" true (id >= 2)
   | Qdb.Rejected _ | Qdb.Overloaded _ -> Alcotest.fail "commit expected");
  ignore (Qdb.ground_all qdb');
  Alcotest.(check int) "three booked" 3
    (Relational.Table.cardinality (Database.table (Qdb.db qdb') "Bookings"))

(* Failure injection: crash with a torn WAL batch — the last pending
   insert is half-written.  Recovery must drop the torn batch and keep a
   consistent prefix. *)
let test_torn_commit () =
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend (geometry 2) in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
  (* Simulate the crash mid-commit of "b": write Begin+Op, no Commit. *)
  let row =
    Tuple.of_list [ Value.Int 99; Value.Str "(99 b () () () () () on-demand)" ]
  in
  backend.Wal.append
    (Relational.Sexp.to_string (Wal.record_to_sexp (Wal.Begin 999)));
  backend.Wal.append
    (Relational.Sexp.to_string
       (Wal.record_to_sexp (Wal.Op (Database.Insert (Qdb.pending_table_name, row)))));
  let qdb' = Qdb.recover backend in
  Alcotest.(check int) "only the acknowledged txn recovered" 1 (Qdb.pending_count qdb');
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb')

(* -- WAL v2 damage cases (fixed seeds, deterministic) ----------------------- *)

(* A corrupted tail must recover leniently to the last complete batch
   with a non-empty recovery report — and raise Wal.Corrupt in strict
   mode instead. *)
let test_corrupt_tail_lenient_and_strict () =
  let build () =
    let backend = Wal.mem_backend () in
    let store = Flights.fresh_store ~backend (geometry 2) in
    let qdb = Qdb.create store in
    ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
    ignore (Qdb.submit qdb (Travel.plain_txn (user "b" "-")));
    (* Damage the tail: garbage that is neither v2 nor a legacy sexp. *)
    backend.Wal.append "42 deadbeef (Begin (17";
    backend
  in
  (* Strict replay refuses the log... *)
  (match Wal.replay_report ~strict:true (Wal.create (build ())) with
   | exception Wal.Corrupt _ -> ()
   | _ -> Alcotest.fail "strict replay should raise Corrupt");
  (* ...lenient recovery keeps both acknowledged transactions and
     reports the drop. *)
  let backend = build () in
  let qdb' = Qdb.recover backend in
  Alcotest.(check int) "both pending survive" 2 (Qdb.pending_count qdb');
  (match Qdb.recovery_report qdb' with
   | Some r ->
     Alcotest.(check int) "one record dropped" 1 r.Wal.records_dropped;
     Alcotest.(check bool) "truncation reported" true (r.Wal.truncated_at <> None)
   | None -> Alcotest.fail "recovery report expected");
  (* The damaged tail was physically repaired: the log is clean again. *)
  let qdb'' = Qdb.recover backend in
  (match Qdb.recovery_report qdb'' with
   | Some r -> Alcotest.(check int) "repaired log drops nothing" 0 r.Wal.records_dropped
   | None -> Alcotest.fail "recovery report expected")

(* A silent bit flip in the middle of the log: everything from the
   damaged record on is dropped, the prefix stays consistent. *)
let test_bit_flip_mid_log () =
  let rng = Workload.Prng.create 11 in
  let backend = Wal.mem_backend () in
  let handle, faulty = Workload.Fault.wrap rng backend in
  let store = Flights.fresh_store ~backend:faulty (geometry 2) in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
  (* Flip a bit inside the next batch, then crash a few appends later. *)
  Workload.Fault.arm handle { Workload.Fault.crash_after = 5; damage = Clean; flip_at = Some 1 };
  (try
     ignore (Qdb.submit qdb (Travel.plain_txn (user "b" "-")));
     ignore (Qdb.submit qdb (Travel.plain_txn (user "c" "-")))
   with Workload.Fault.Crash -> ());
  let qdb' = Qdb.recover backend in
  Alcotest.(check int) "only the pre-flip txn survives" 1 (Qdb.pending_count qdb');
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb');
  (match Qdb.recovery_report qdb' with
   | Some r -> Alcotest.(check bool) "records dropped" true (r.Wal.records_dropped > 0)
   | None -> Alcotest.fail "recovery report expected")

(* Crash mid-batch via the fault combinator: the half-written batch is
   dropped, acknowledged batches survive. *)
let test_crash_mid_batch () =
  let rng = Workload.Prng.create 23 in
  let backend = Wal.mem_backend () in
  let handle, faulty = Workload.Fault.wrap rng backend in
  let store = Flights.fresh_store ~backend:faulty (geometry 2) in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
  (* Each pending insert is a 3-record batch; crash on its middle record. *)
  Workload.Fault.arm handle { Workload.Fault.crash_after = 1; damage = Torn; flip_at = None };
  (try ignore (Qdb.submit qdb (Travel.plain_txn (user "b" "-")))
   with Workload.Fault.Crash -> ());
  let qdb' = Qdb.recover backend in
  Alcotest.(check int) "only the acknowledged txn" 1 (Qdb.pending_count qdb');
  let labels = List.map (fun t -> t.Rtxn.label) (Qdb.pending qdb') in
  Alcotest.(check (list string)) "it is a" [ "a" ] labels;
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb')

(* Crash during checkpoint compaction: the segment swap is atomic, so
   recovery sees either the old log or the new one — never a mix. *)
let test_crash_mid_checkpoint () =
  let try_seed seed =
    let rng = Workload.Prng.create seed in
    let backend = Wal.mem_backend () in
    let handle, faulty = Workload.Fault.wrap rng backend in
    let store = Flights.fresh_store ~backend:faulty (geometry 2) in
    let qdb = Qdb.create store in
    ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
    ignore (Qdb.ground_all qdb);
    Workload.Fault.arm handle { Workload.Fault.crash_after = 0; damage = Clean; flip_at = None };
    let crashed = (try Store.checkpoint store; false with Workload.Fault.Crash -> true) in
    Alcotest.(check bool) "checkpoint crashed" true crashed;
    let qdb' = Qdb.recover backend in
    Alcotest.(check bool) "a's booking durable either way" true
      (Flights.booking_of (Qdb.db qdb') "a" <> None);
    Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb');
    (* Whether the swap won or lost the race is PRNG-decided: report
       which, so both paths are known to be exercised. *)
    List.length (backend.Wal.read_all ()) = 1
  in
  (* Seeds chosen so both sides of the atomic-rename race occur. *)
  let outcomes = List.map try_seed [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check bool) "swap-completed path exercised" true (List.mem true outcomes);
  Alcotest.(check bool) "swap-lost path exercised" true (List.mem false outcomes)

(* Appends after a lenient truncation land on the repaired log and are
   durable: recovery after recovery keeps the new writes. *)
let test_truncate_then_append () =
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend (geometry 2) in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.plain_txn (user "a" "-")));
  backend.Wal.append "garbage tail";
  let qdb' = Qdb.recover backend in
  ignore (Qdb.submit qdb' (Travel.plain_txn (user "b" "-")));
  let qdb'' = Qdb.recover backend in
  Alcotest.(check int) "both txns durable" 2 (Qdb.pending_count qdb'');
  (match Qdb.recovery_report qdb'' with
   | Some r -> Alcotest.(check int) "clean second recovery" 0 r.Wal.records_dropped
   | None -> Alcotest.fail "recovery report expected")

let test_entangled_trigger_survives_recovery () =
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend (geometry 2) in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.entangled_txn (user "a" "b")));
  Alcotest.(check int) "a waits" 1 (Qdb.pending_count qdb);
  let qdb' = Qdb.recover backend in
  Alcotest.(check int) "a still pending" 1 (Qdb.pending_count qdb');
  (* The partner arrives after recovery: both must ground together,
     adjacent. *)
  ignore (Qdb.submit qdb' (Travel.entangled_txn (user "b" "a")));
  Alcotest.(check int) "both grounded" 0 (Qdb.pending_count qdb');
  (match Flights.booking_of (Qdb.db qdb') "a", Flights.booking_of (Qdb.db qdb') "b" with
   | Some (_, s1), Some (_, s2) ->
     Alcotest.(check bool) "adjacent after recovery" true
       (Flights.seats_adjacent (Qdb.db qdb') s1 s2)
   | _ -> Alcotest.fail "both should be booked")

(* A log that lost its first record replays to the empty prefix, not to
   the DDL that followed it: every segment's sequence starts at 0. *)
let test_lost_head_record () =
  let backend = Wal.mem_backend () in
  ignore (Flights.fresh_store ~backend (geometry 2));
  let damaged = Wal.mem_backend () in
  List.iter damaged.Wal.append (List.tl (backend.Wal.read_all ()));
  (match Wal.replay ~strict:true (Wal.create damaged) with
   | exception Wal.Corrupt { index = 0; _ } -> ()
   | _ -> Alcotest.fail "strict replay accepted a log without its head record");
  let db, report = Wal.replay_report (Wal.create damaged) in
  Alcotest.(check int) "nothing kept" 0 report.Wal.records_kept;
  Alcotest.(check bool) "empty database" true (Database.equal db (Database.create ()))

(* WAL replay is total on damaged logs.  Two real engine logs (one
   before and one after a checkpoint compaction) get one damaged line —
   dropped, torn, bit-flipped or with a byte inserted — or are cut short.
   Lenient replay never raises and lands on the state after some prefix
   of the complete batches; strict replay raises nothing but
   [Wal.Corrupt]. *)
let prop_replay_total_on_damage =
  let backend = Wal.mem_backend () in
  let store = Flights.fresh_store ~backend (geometry 2) in
  let qdb = Qdb.create store in
  let submit txn = ignore (Qdb.submit qdb txn) in
  List.iter (fun n -> submit (Travel.plain_txn (user n "-"))) [ "a"; "b"; "c" ];
  ignore (Qdb.ground qdb 0);
  let before_checkpoint = backend.Wal.read_all () in
  Store.checkpoint store;
  submit (Travel.entangled_txn (user "d" "e"));
  submit (Travel.entangled_txn (user "e" "d"));
  submit (Travel.plain_txn (user "f" "-"));
  ignore (Qdb.ground_all qdb);
  let logs = [| before_checkpoint; backend.Wal.read_all () |] in
  let replay ?strict lines =
    let b = Wal.mem_backend () in
    List.iter b.Wal.append lines;
    Wal.replay ?strict (Wal.create b)
  in
  (* Replaying the first n intact lines, for every n, reaches exactly
     the states at complete-batch boundaries. *)
  let prefix_states =
    Array.map
      (fun lines ->
        List.init (List.length lines + 1) (fun n -> replay (List.filteri (fun i _ -> i < n) lines)))
      logs
  in
  let damaged =
    let open QCheck.Gen in
    int_bound (Array.length logs - 1) >>= fun which ->
    let lines = logs.(which) in
    let n = List.length lines in
    let edit_line =
      int_bound (n - 1) >>= fun i ->
      let line = List.nth lines i in
      let len = String.length line in
      oneof
        [ return [];
          map (fun j -> [ String.sub line 0 j ]) (int_bound (len - 1));
          map2
            (fun j bit ->
              [ String.mapi
                  (fun k c -> if k = j then Char.chr (Char.code c lxor (1 lsl bit)) else c)
                  line ])
            (int_bound (len - 1)) (int_bound 7);
          map2
            (fun j c -> [ String.sub line 0 j ^ String.make 1 c ^ String.sub line j (len - j) ])
            (int_bound len) char;
        ]
      >|= fun replacement ->
      List.concat (List.mapi (fun k l -> if k = i then replacement else [ l ]) lines)
    in
    let cut = map (fun k -> List.filteri (fun i _ -> i < k) lines) (int_bound n) in
    frequency [ (4, edit_line); (1, cut) ] >|= fun lines -> (which, lines)
  in
  QCheck.Test.make ~name:"replay is total on damaged logs" ~count:500
    (QCheck.make ~print:(fun (_, lines) -> String.concat "\n" lines) damaged)
    (fun (which, lines) ->
      let db = replay lines in
      List.exists (Database.equal db) prefix_states.(which)
      &&
      match replay ~strict:true lines with
      | _ -> true
      | exception Wal.Corrupt _ -> true)

let suite =
  [ Alcotest.test_case "recover pending transactions" `Quick test_recover_pending;
    Alcotest.test_case "recovery idempotent" `Quick test_recover_is_idempotent;
    Alcotest.test_case "recovered ids fresh" `Quick test_recovered_ids_do_not_collide;
    Alcotest.test_case "torn commit dropped" `Quick test_torn_commit;
    Alcotest.test_case "corrupt tail: lenient + strict" `Quick
      test_corrupt_tail_lenient_and_strict;
    Alcotest.test_case "bit flip mid-log" `Quick test_bit_flip_mid_log;
    Alcotest.test_case "crash mid-batch" `Quick test_crash_mid_batch;
    Alcotest.test_case "crash mid-checkpoint" `Quick test_crash_mid_checkpoint;
    Alcotest.test_case "append after truncation" `Quick test_truncate_then_append;
    Alcotest.test_case "entangled trigger survives recovery" `Quick
      test_entangled_trigger_survives_recovery;
    Alcotest.test_case "lost head record" `Quick test_lost_head_record;
    QCheck_alcotest.to_alcotest prop_replay_total_on_damage;
  ]
