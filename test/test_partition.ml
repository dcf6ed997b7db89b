(* Tests for the partition manager: dependence, merge exactness, resplit
   after groundings, soft-unit grouping, the adaptive policy knob, and the
   routing indexes against exhaustive scans. *)

module Value = Relational.Value
module Database = Relational.Database
module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Partition = Quantum.Partition
module Compose = Quantum.Compose
module Flights = Workload.Flights
module Travel = Workload.Travel
open Logic

let booking ?(id = -1) user flight =
  let s = Term.V (Term.fresh_var "s") in
  let fc = Term.int flight in
  {
    (Rtxn.make ~label:user
       ~hard:[ Atom.make "Available" [ fc; s ] ]
       ~updates:
         [ Rtxn.Del (Atom.make "Available" [ fc; s ]);
           Rtxn.Ins (Atom.make "Bookings" [ Term.str user; fc; s ]) ]
       ())
    with
    Rtxn.id = id;
  }

let test_dependence () =
  let parts = Partition.create () in
  ignore parts;
  let t0 = booking ~id:0 "a" 0 in
  let t1 = booking ~id:1 "b" 1 in
  let t2 = booking ~id:2 "c" 0 in
  (* Same flight constant unifies; different flight constants do not. *)
  Alcotest.(check bool) "same flight unifies" true
    (Unify.any_unifiable (Rtxn.all_atoms t0) (Rtxn.all_atoms t2));
  Alcotest.(check bool) "different flights independent" false
    (Unify.any_unifiable (Rtxn.all_atoms t0) (Rtxn.all_atoms t1))

(* Merged-partition formula must be equisatisfiable with a from-scratch
   recomposition of the combined sequence (the conjunction-exactness claim
   in partition.ml). *)
let test_merge_exactness () =
  let store = Flights.fresh_store { Flights.flights = 2; rows_per_flight = 1; dest = "LA" } in
  let db = Relational.Store.db store in
  let key_of = Compose.resolver_of_db db in
  let t0 = Rtxn.freshen (booking ~id:0 "a" 0) in
  let t1 = Rtxn.freshen (booking ~id:1 "b" 1) in
  let f0 = Compose.body_of_sequence ~key_of [ { t0 with Rtxn.id = 0 } ] in
  let f1 = Compose.body_of_sequence ~key_of [ { t1 with Rtxn.id = 1 } ] in
  let conjoined = Formula.and_ [ f0; f1 ] in
  let from_scratch =
    Compose.body_of_sequence ~key_of [ { t0 with Rtxn.id = 0 }; { t1 with Rtxn.id = 1 } ]
  in
  Alcotest.(check bool) "conjoined sat" true (Solver.Backtrack.satisfiable db conjoined);
  Alcotest.(check bool) "agree" true
    (Solver.Backtrack.satisfiable db conjoined
     = Solver.Backtrack.satisfiable db from_scratch)

let test_resplit_after_grounding () =
  (* A flight-agnostic bridging transaction merges two flight partitions;
     grounding it must let them split apart again. *)
  let store = Flights.fresh_store { Flights.flights = 2; rows_per_flight = 2; dest = "LA" } in
  let qdb = Qdb.create store in
  ignore (Qdb.submit qdb (Travel.plain_txn { Travel.name = "a"; partner = "-"; flight = 0 }));
  ignore (Qdb.submit qdb (Travel.plain_txn { Travel.name = "b"; partner = "-"; flight = 1 }));
  let f = Term.V (Term.fresh_var "f") and s = Term.V (Term.fresh_var "s") in
  let bridging =
    Rtxn.make ~label:"bridge"
      ~hard:[ Atom.make "Available" [ f; s ] ]
      ~updates:
        [ Rtxn.Del (Atom.make "Available" [ f; s ]);
          Rtxn.Ins (Atom.make "Bookings" [ Term.str "bridge"; f; s ]) ]
      ()
  in
  let id =
    match Qdb.submit qdb bridging with
    | Qdb.Committed id -> id
    | Qdb.Rejected r | Qdb.Overloaded r -> Alcotest.failf "bridge rejected: %s" r
  in
  Alcotest.(check int) "merged" 1 (Qdb.partition_count qdb);
  ignore (Qdb.ground qdb id);
  Alcotest.(check int) "split after grounding the bridge" 2 (Qdb.partition_count qdb);
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb)

let test_soft_unit_grouping () =
  (* Optional atoms sharing a variable form one unit; independent optional
     atoms stay separate. *)
  let s = Term.V (Term.fresh_var "s") and s2 = Term.V (Term.fresh_var "s2") in
  let w = Term.V (Term.fresh_var "w") in
  let txn =
    Rtxn.make ~label:"g"
      ~hard:[ Atom.make "Available" [ Term.int 0; s ] ]
      ~optional:
        [ Atom.make "Bookings" [ Term.str "p"; Term.int 0; s2 ];
          Atom.make "Adjacent" [ s; s2 ];
          Atom.make "Flights" [ w; Term.str "LA" ];
        ]
      ~updates:[ Rtxn.Del (Atom.make "Available" [ Term.int 0; s ]) ]
      ()
  in
  Alcotest.(check int) "two units" 2 (List.length (Rtxn.soft_formulas txn));
  (* Optional constraints join their unit. *)
  let txn2 =
    Rtxn.make ~label:"g2"
      ~hard:[ Atom.make "Available" [ Term.int 0; s ] ]
      ~optional:[ Atom.make "Bookings" [ Term.str "p"; Term.int 0; s2 ] ]
      ~optional_constraints:[ Formula.eq s s2 ]
      ~updates:[]
      ()
  in
  Alcotest.(check int) "constraint joins unit" 1 (List.length (Rtxn.soft_formulas txn2))

let test_adaptive_policy () =
  (* With adaptive grounding on and a generous slack threshold, pending
     transactions are pre-emptively fixed as seats run low. *)
  let config = { Qdb.default_config with adaptive = true; adaptive_slack = 10. } in
  let store = Flights.fresh_store { Flights.flights = 1; rows_per_flight = 2; dest = "LA" } in
  let qdb = Qdb.create ~config store in
  List.iter
    (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn { Travel.name = n; partner = "-"; flight = 0 })))
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check bool) "adaptive grounded pre-emptively" true
    ((Qdb.metrics qdb).Quantum.Metrics.grounded > 0);
  Alcotest.(check bool) "invariant" true (Qdb.invariant_holds qdb);
  (* Without the policy nothing is grounded. *)
  let store2 = Flights.fresh_store { Flights.flights = 1; rows_per_flight = 2; dest = "LA" } in
  let qdb2 = Qdb.create store2 in
  List.iter
    (fun n -> ignore (Qdb.submit qdb2 (Travel.plain_txn { Travel.name = n; partner = "-"; flight = 0 })))
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check int) "no grounding without policy" 0 (Qdb.metrics qdb2).Quantum.Metrics.grounded

(* Robustness property: random interleavings of submissions, reads,
   writes and explicit groundings never break the invariant or crash. *)
let prop_invariant_under_mixed_ops =
  let open QCheck in
  let op_gen = Gen.map (fun (k, who) -> (k mod 5, who mod 4)) (Gen.pair Gen.small_nat Gen.small_nat) in
  Test.make ~name:"invariant holds under random mixed operations" ~count:40
    (make (Gen.list_size (Gen.int_range 1 15) op_gen)
       ~print:(fun ops -> String.concat ";" (List.map (fun (k, w) -> Printf.sprintf "%d/%d" k w) ops)))
    (fun ops ->
      let store = Flights.fresh_store { Flights.flights = 2; rows_per_flight = 1; dest = "LA" } in
      let qdb = Qdb.create store in
      let users = [| "a"; "b"; "c"; "d" |] in
      let counter = ref 0 in
      List.iter
        (fun (kind, who) ->
          incr counter;
          let name = Printf.sprintf "%s%d" users.(who) !counter in
          match kind with
          | 0 | 1 ->
            ignore
              (Qdb.submit qdb
                 (Travel.plain_txn { Travel.name; partner = "-"; flight = who mod 2 }))
          | 2 ->
            ignore
              (Qdb.read qdb
                 (Travel.seat_query { Travel.name = users.(who) ^ "1"; partner = "-"; flight = 0 }))
          | 3 ->
            let tuple =
              Relational.Tuple.of_list [ Value.Int (who mod 2); Value.Int (who mod 3) ]
            in
            ignore (Qdb.write qdb [ Database.Delete ("Available", tuple) ])
          | _ ->
            (match Qdb.pending qdb with
             | txn :: _ -> ignore (Qdb.ground qdb txn.Rtxn.id)
             | [] -> ()))
        ops;
      let ok = Qdb.invariant_holds qdb in
      ignore (Qdb.ground_all qdb);
      ok && Qdb.pending_count qdb = 0)

(* Index property: on random multi-flight traces — flight-bound
   bookings, a variable-headed bridge, partner pairs, groundings and
   Collapse reads — the indexed lookups return after every step exactly
   what an exhaustive scan of every partition or pending transaction
   returns, in the same order. *)
let prop_index_matches_scans =
  let open QCheck in
  let flights = 3 in
  let step_gen = Gen.(triple (int_bound 5) (int_bound (flights - 1)) small_nat) in
  let print (kind, flight, n) = Printf.sprintf "%d/%d/%d" kind flight n in
  let bridge label =
    let f = Term.V (Term.fresh_var "f") and s = Term.V (Term.fresh_var "s") in
    Rtxn.make ~label
      ~hard:[ Atom.make "Available" [ f; s ] ]
      ~updates:
        [ Rtxn.Del (Atom.make "Available" [ f; s ]);
          Rtxn.Ins (Atom.make "Bookings" [ Term.str label; f; s ]) ]
      ()
  in
  let any_query rel arity =
    let args = List.init arity (fun _ -> Term.V (Term.fresh_var "x")) in
    Solver.Query.make ~head:args ~body:[ Atom.make rel args ] ()
  in
  Test.make ~name:"indexed routing = exhaustive scans" ~count:60
    (make (Gen.list_size (Gen.int_range 1 30) step_gen)
       ~print:(fun steps -> String.concat ";" (List.map print steps)))
    (fun steps ->
      let store = Flights.fresh_store { Flights.flights; rows_per_flight = 2; dest = "LA" } in
      (* A small k keeps every partition's rejection proofs cheap and adds
         k-pressure groundings to the trace. *)
      let qdb = Qdb.create ~config:{ Qdb.default_config with k = 4 } store in
      let parts = Qdb.partition_manager qdb in
      let labels = ref [] in
      let submit txn =
        labels := txn.Rtxn.label :: !labels;
        (match txn.Rtxn.trigger with
         | Rtxn.On_partner p -> labels := p :: !labels
         | Rtxn.On_demand -> ());
        ignore (Qdb.submit qdb txn)
      in
      let user name flight = { Travel.name; partner = "-"; flight } in
      let ids = List.map (fun txn -> txn.Rtxn.id) in
      let routing_matches () =
        let pending = Partition.all_pending parts in
        let probes = bridge "probe" :: List.init flights (fun f -> booking "probe" f) in
        let queries =
          any_query "Available" 2 :: any_query "Bookings" 3
          :: List.map (fun l -> Travel.seat_query (user l 0)) !labels
        in
        Partition.index_consistent parts
        && List.for_all
             (fun probe ->
               let scanned = List.filter (Partition.depends probe) (Partition.partitions parts) in
               let indexed = Partition.dependents parts probe in
               List.length indexed = List.length scanned && List.for_all2 ( == ) indexed scanned)
             probes
        && List.for_all
             (fun label ->
               ids (Partition.labelled parts label)
               = ids (List.filter (fun txn -> txn.Rtxn.label = label) pending)
               && ids (Partition.waiting_for parts label)
                  = ids (List.filter (fun txn -> txn.Rtxn.trigger = Rtxn.On_partner label) pending))
             !labels
        && List.for_all
             (fun (q : Solver.Query.t) ->
               ids (Qdb.read_impact qdb q)
               = ids
                   (List.filter
                      (fun txn ->
                        Unify.any_unifiable q.Solver.Query.body
                          (List.map Rtxn.update_atom txn.Rtxn.updates))
                      pending))
             queries
      in
      List.for_all
        (fun (kind, flight, n) ->
          (match kind with
           (* Labels repeat across flights, so label lookups span
              partitions. *)
           | 0 | 1 -> submit (Travel.plain_txn (user (Printf.sprintf "u%d" (n mod 4)) flight))
           | 2 ->
             (* One half of an entangled pair; the other half's arrival
                grounds both. *)
             let pair = Printf.sprintf "p%d" (n mod 3) in
             let name, partner =
               if n mod 2 = 0 then (pair ^ "a", pair ^ "b") else (pair ^ "b", pair ^ "a")
             in
             submit (Travel.entangled_txn { Travel.name; partner; flight })
           | 3 -> submit (bridge (Printf.sprintf "bridge%d" n))
           | 4 ->
             (match Qdb.pending qdb with
              | [] -> ()
              | pending ->
                ignore (Qdb.ground qdb (List.nth pending (n mod List.length pending)).Rtxn.id))
           | _ ->
             (match !labels with
              | [] -> ()
              | labels ->
                let label = List.nth labels (n mod List.length labels) in
                ignore (Qdb.read ~policy:Qdb.Collapse qdb (Travel.seat_query (user label flight)))));
          routing_matches ())
        steps)

let suite =
  [ Alcotest.test_case "dependence" `Quick test_dependence;
    Alcotest.test_case "merge exactness" `Quick test_merge_exactness;
    Alcotest.test_case "resplit after grounding" `Quick test_resplit_after_grounding;
    Alcotest.test_case "soft unit grouping" `Quick test_soft_unit_grouping;
    Alcotest.test_case "adaptive policy" `Quick test_adaptive_policy;
    QCheck_alcotest.to_alcotest prop_invariant_under_mixed_ops;
    QCheck_alcotest.to_alcotest prop_index_matches_scans;
  ]
