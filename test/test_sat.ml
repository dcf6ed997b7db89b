(* Tests for the CDCL SAT solver, against brute force. *)

(* A model satisfies [clauses] when every clause has a true literal;
   [model.(v)] is variable [v]'s value. *)
let check_model clauses model =
  List.for_all
    (fun clause -> Array.exists (fun l -> if l > 0 then model.(l) else not model.(-l)) clause)
    clauses

(* Brute-force reference: try all assignments. *)
let brute_force num_vars clauses =
  let rec go v model =
    if v > num_vars then check_model clauses model
    else begin
      model.(v) <- false;
      go (v + 1) model
      ||
      (model.(v) <- true;
       go (v + 1) model)
    end
  in
  go 1 (Array.make (num_vars + 1) false)

let clause_gen num_vars =
  let open QCheck.Gen in
  let lit_gen =
    let* v = int_range 1 num_vars in
    let* sign = bool in
    return (if sign then v else -v)
  in
  list_size (int_range 0 20) (map Array.of_list (list_size (int_range 1 4) lit_gen))

(* --- CDCL --- *)

let cdcl_of ~num_vars clauses =
  let s = Sat.Cdcl.create () in
  for _ = 1 to num_vars do
    ignore (Sat.Cdcl.new_var s)
  done;
  List.iter (Sat.Cdcl.add_clause s) clauses;
  s

let test_cdcl_trivial () =
  Alcotest.(check bool) "empty instance sat" true
    (Sat.Cdcl.solve (cdcl_of ~num_vars:0 []) = Sat.Cdcl.Sat);
  Alcotest.(check bool) "empty clause unsat" true
    (Sat.Cdcl.solve (cdcl_of ~num_vars:1 [ [||] ]) = Sat.Cdcl.Unsat);
  let s = cdcl_of ~num_vars:1 [ [| 1 |] ] in
  Alcotest.(check bool) "unit sat" true (Sat.Cdcl.solve s = Sat.Cdcl.Sat);
  Alcotest.(check bool) "unit model" true (Sat.Cdcl.value s 1);
  Alcotest.(check bool) "conflicting units unsat" true
    (Sat.Cdcl.solve (cdcl_of ~num_vars:1 [ [| 1 |]; [| -1 |] ]) = Sat.Cdcl.Unsat);
  let s = cdcl_of ~num_vars:2 [ [| 1; 2 |]; [| -1; 2 |]; [| 1; -2 |] ] in
  Alcotest.(check bool) "forced sat" true (Sat.Cdcl.solve s = Sat.Cdcl.Sat);
  Alcotest.(check bool) "x1 forced" true (Sat.Cdcl.value s 1);
  Alcotest.(check bool) "x2 forced" true (Sat.Cdcl.value s 2);
  (* All four binary clauses over two vars: unsat. *)
  Alcotest.(check bool) "full binary unsat" true
    (Sat.Cdcl.solve (cdcl_of ~num_vars:2 [ [| 1; 2 |]; [| -1; 2 |]; [| 1; -2 |]; [| -1; -2 |] ])
     = Sat.Cdcl.Unsat)

let test_cdcl_pigeonhole () =
  (* PHP(6,5): large enough that learning does real work. *)
  let pigeons = 6 and holes = 5 in
  let var i h = (i * holes) + h + 1 in
  let clauses =
    List.init pigeons (fun i -> Array.init holes (fun h -> var i h))
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j -> if j > i then Some [| -var i h; -var j h |] else None)
                (List.init pigeons Fun.id))
            (List.init pigeons Fun.id))
        (List.init holes Fun.id)
  in
  let s = cdcl_of ~num_vars:(pigeons * holes) clauses in
  Alcotest.(check bool) "php(6,5) unsat" true (Sat.Cdcl.solve s = Sat.Cdcl.Unsat);
  let st = Sat.Cdcl.stats s in
  Alcotest.(check bool) "conflicts happened" true (st.Sat.Cdcl.conflicts > 0);
  Alcotest.(check bool) "clauses learned" true (st.Sat.Cdcl.learned > 0)

let test_cdcl_assumptions () =
  (* Gate two incompatible chunks behind activation literals a=1, b=2:
     a -> x3, b -> ¬x3.  Either alone sat, both together unsat, and the
     instance stays reusable after every answer. *)
  let s = cdcl_of ~num_vars:3 [ [| -1; 3 |]; [| -2; -3 |] ] in
  Alcotest.(check bool) "a alone sat" true
    (Sat.Cdcl.solve ~assumptions:[ 1 ] s = Sat.Cdcl.Sat);
  Alcotest.(check bool) "a implies x3" true (Sat.Cdcl.value s 3);
  Alcotest.(check bool) "b alone sat" true
    (Sat.Cdcl.solve ~assumptions:[ 2 ] s = Sat.Cdcl.Sat);
  Alcotest.(check bool) "b implies not x3" false (Sat.Cdcl.value s 3);
  Alcotest.(check bool) "a+b unsat under assumptions" true
    (Sat.Cdcl.solve ~assumptions:[ 1; 2 ] s = Sat.Cdcl.Unsat);
  Alcotest.(check bool) "still sat unassumed" true (Sat.Cdcl.solve s = Sat.Cdcl.Sat);
  Alcotest.(check bool) "a alone still sat after unsat answer" true
    (Sat.Cdcl.solve ~assumptions:[ 1 ] s = Sat.Cdcl.Sat);
  (* Growing the instance between solves keeps prior state. *)
  let v4 = Sat.Cdcl.new_var s in
  Sat.Cdcl.add_clause s [| -1; v4 |];
  Alcotest.(check bool) "grown instance solves" true
    (Sat.Cdcl.solve ~assumptions:[ 1 ] s = Sat.Cdcl.Sat);
  Alcotest.(check bool) "new implication holds" true (Sat.Cdcl.value s v4)

let test_cdcl_budgets () =
  let pigeons = 7 and holes = 6 in
  let var i h = (i * holes) + h + 1 in
  let clauses =
    List.init pigeons (fun i -> Array.init holes (fun h -> var i h))
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j -> if j > i then Some [| -var i h; -var j h |] else None)
                (List.init pigeons Fun.id))
            (List.init pigeons Fun.id))
        (List.init holes Fun.id)
  in
  let s = cdcl_of ~num_vars:(pigeons * holes) clauses in
  Alcotest.(check bool) "conflict budget trips" true
    (match Sat.Cdcl.solve ~conflict_limit:3 s with
     | exception Sat.Cdcl.Conflict_budget_exceeded -> true
     | _ -> false);
  Alcotest.(check bool) "expired deadline trips at entry" true
    (match Sat.Cdcl.solve ~deadline_ns:(Obs.Mclock.now_ns ()) s with
     | exception Sat.Cdcl.Timed_out -> true
     | _ -> false);
  (* The instance survived both aborts. *)
  Alcotest.(check bool) "usable after aborts" true (Sat.Cdcl.solve s = Sat.Cdcl.Unsat)

let prop_cdcl_agrees_with_brute_force =
  QCheck.Test.make ~name:"cdcl = brute force on random 3-sat-ish" ~count:500
    (QCheck.make (clause_gen 6)
       ~print:(fun cs ->
         String.concat " "
           (List.map
              (fun c ->
                "(" ^ String.concat "," (List.map string_of_int (Array.to_list c)) ^ ")")
              cs)))
    (fun clauses ->
      let brute = brute_force 6 clauses in
      let s = cdcl_of ~num_vars:6 clauses in
      match Sat.Cdcl.solve s with
      | Sat.Cdcl.Sat ->
        let model = Array.init 7 (fun v -> v > 0 && Sat.Cdcl.value s v) in
        brute && check_model clauses model
      | Sat.Cdcl.Unsat -> not brute)

let prop_cdcl_incremental_assumptions =
  (* One persistent instance; each random instance becomes a chunk gated
     by a fresh activation literal.  Solving under one chunk's assumption
     must agree with brute force on that instance alone — learned clauses
     from earlier chunks may be reused but never change answers. *)
  QCheck.Test.make ~name:"cdcl incremental under assumptions = brute force" ~count:60
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 6) (clause_gen 5)))
    (fun instances ->
      let s = Sat.Cdcl.create () in
      List.for_all
        (fun clauses ->
          let act = Sat.Cdcl.new_var s in
          let base = Sat.Cdcl.num_vars s in
          let shift c = Array.map (fun l -> if l > 0 then l + base else l - base) c in
          for _ = 1 to 5 do
            ignore (Sat.Cdcl.new_var s)
          done;
          List.iter
            (fun c -> Sat.Cdcl.add_clause s (Array.append [| -act |] (shift c)))
            clauses;
          let brute = brute_force 5 clauses in
          match Sat.Cdcl.solve ~assumptions:[ act ] s with
          | Sat.Cdcl.Sat ->
            let model = Array.init 6 (fun v -> v > 0 && Sat.Cdcl.value s (v + base)) in
            brute && check_model clauses model
          | Sat.Cdcl.Unsat -> not brute)
        instances)

let suite =
  [ Alcotest.test_case "cdcl trivial cases" `Quick test_cdcl_trivial;
    Alcotest.test_case "cdcl pigeonhole" `Quick test_cdcl_pigeonhole;
    Alcotest.test_case "cdcl incremental assumptions" `Quick test_cdcl_assumptions;
    Alcotest.test_case "cdcl budgets" `Quick test_cdcl_budgets;
    QCheck_alcotest.to_alcotest prop_cdcl_agrees_with_brute_force;
    QCheck_alcotest.to_alcotest prop_cdcl_incremental_assumptions;
  ]
