(* Tests for the grounding search: agreement with brute-force evaluation,
   the LIMIT-1 compilation path, soft maximization and the solution
   cache. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Database = Relational.Database
open Logic

(* A small database: R(a,b), S(b,c) over a tiny universe. *)
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
  List.iter (fun (a, b) -> ignore (Relational.Table.insert r (Tuple.of_list [ Value.Int a; Value.Int b ]))) r_rows;
  List.iter (fun (b, c) -> ignore (Relational.Table.insert s (Tuple.of_list [ Value.Int b; Value.Int c ]))) s_rows;
  db

(* Brute force: try every valuation of [vars] over [universe]. *)
let brute_force_satisfiable db universe formula =
  let vars = Term.Var_set.elements (Formula.vars formula) in
  let rec go assignment = function
    | [] ->
      let valuation v =
        List.find_map
          (fun (v', value) -> if Term.equal_var v v' then Some (Value.Int value) else None)
          assignment
      in
      (try Formula.eval db valuation formula with Formula.Unbound _ -> false)
    | v :: rest -> List.exists (fun value -> go ((v, value) :: assignment) rest) universe
  in
  go [] vars

let universe = [ 0; 1; 2; 3 ]

(* Random conjunctive formulas with disjunction and negation sprinkled in.
   Every variable appears in at least one positive atom (range
   restriction), matching what composition produces. *)
let pool = Array.init 3 (fun i -> Term.fresh_var (Printf.sprintf "s%d" i))

let formula_case_gen =
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
        map (fun a -> Formula.Not_atom a) atom_gen;
      ]
  in
  (* Anchor: every pool variable in a positive atom. *)
  let anchors =
    List.map
      (fun v -> Formula.Atom (Atom.make "R" [ Term.V v; Term.V v ]))
      []
  in
  let* n_leaves = int_range 1 5 in
  let* leaves = list_size (return n_leaves) leaf_gen in
  let* ors = list_size (int_range 0 2) (list_size (int_range 1 3) leaf_gen) in
  let f = Formula.And (anchors @ leaves @ List.map (fun fs -> Formula.Or fs) ors) in
  (* Make it range-restricted: conjoin a positive atom per used variable. *)
  let used = Term.Var_set.elements (Formula.vars f) in
  let anchored =
    Formula.And (f :: List.map (fun v -> Formula.Atom (Atom.make "R" [ Term.V v; Term.V v ])) used)
  in
  let* anchor = QCheck.Gen.bool in
  return (if anchor then anchored else f)

let db_gen =
  let open QCheck.Gen in
  let row_gen = pair (int_range 0 3) (int_range 0 3) in
  pair (list_size (int_range 0 8) row_gen) (list_size (int_range 0 8) row_gen)

let case =
  QCheck.make
    (QCheck.Gen.pair formula_case_gen db_gen)
    ~print:(fun (f, _) -> Formula.to_string f)

let prop_backtrack_agrees_with_brute_force =
  QCheck.Test.make ~name:"backtrack = brute force (satisfiability)" ~count:500 case
    (fun (f, (r_rows, s_rows)) ->
      let db = make_db r_rows s_rows in
      let brute = brute_force_satisfiable db universe f in
      let solved = Solver.Backtrack.satisfiable db f in
      (* The solver may satisfy residual constraints with values outside the
         brute-force universe, so solver-SAT is allowed when brute says
         no only if brute is restricted...; in practice: solver SAT implies
         checking its witness.  Solver-UNSAT must imply brute-UNSAT. *)
      if solved then true else not brute)

let prop_backtrack_witness_is_model =
  QCheck.Test.make ~name:"backtrack witness satisfies the formula" ~count:500 case
    (fun (f, (r_rows, s_rows)) ->
      let db = make_db r_rows s_rows in
      match Solver.Backtrack.solve db f with
      | None -> true
      | Some subst ->
        (* Bind any leftover variables to distinct fresh values far outside
           the database (vacuous disequalities / negated atoms). *)
        let fresh = Hashtbl.create 4 in
        let valuation v =
          match Subst.resolve subst (Term.V v) with
          | Term.C value -> Some value
          | Term.V rep ->
            (match Hashtbl.find_opt fresh rep.Term.vid with
             | Some value -> Some value
             | None ->
               let value = Value.Int (1000 + Hashtbl.length fresh) in
               Hashtbl.add fresh rep.Term.vid value;
               Some value)
        in
        (try Formula.eval db valuation f with Formula.Unbound _ -> false))

let prop_backtrack_complete =
  QCheck.Test.make ~name:"brute-force SAT implies backtrack SAT" ~count:500 case
    (fun (f, (r_rows, s_rows)) ->
      let db = make_db r_rows s_rows in
      if brute_force_satisfiable db universe f then Solver.Backtrack.satisfiable db f else true)

let prop_limit_one_agrees =
  QCheck.Test.make ~name:"LIMIT-1 path = backtrack (satisfiability)" ~count:500 case
    (fun (f, (r_rows, s_rows)) ->
      let db = make_db r_rows s_rows in
      match Solver.Limit_one.satisfiable db f with
      | verdict -> verdict = Solver.Backtrack.satisfiable db f
      | exception Solver.Limit_one.Formula_too_large -> true)

let test_solutions_complete () =
  let db = make_db [ (0, 1); (1, 2); (2, 3) ] [] in
  let x = Term.fresh_var "x" and y = Term.fresh_var "y" in
  let f = Formula.Atom (Atom.make "R" [ Term.V x; Term.V y ]) in
  Alcotest.(check int) "all rows enumerated" 3 (List.length (Solver.Backtrack.solutions db f));
  Alcotest.(check int) "limit respected" 2
    (List.length (Solver.Backtrack.solutions ~limit:2 db f))

let test_seeded_solve () =
  let db = make_db [ (0, 1); (1, 2) ] [] in
  let x = Term.fresh_var "x" and y = Term.fresh_var "y" in
  let f = Formula.Atom (Atom.make "R" [ Term.V x; Term.V y ]) in
  let seed = Subst.bind x (Term.int 1) Subst.empty in
  (match Solver.Backtrack.solve ~seed db f with
   | Some s -> Alcotest.(check bool) "seed respected" true
                 (Term.equal (Subst.resolve s (Term.V y)) (Term.int 2))
   | None -> Alcotest.fail "seeded solve failed");
  let bad_seed = Subst.bind x (Term.int 7) Subst.empty in
  Alcotest.(check bool) "conflicting seed unsat" true
    (Solver.Backtrack.solve ~seed:bad_seed db f = None)

let test_soft_maximization () =
  let db = make_db [ (0, 1); (1, 2); (2, 3) ] [ (1, 5) ] in
  let x = Term.fresh_var "x" and y = Term.fresh_var "y" in
  let hard = Formula.Atom (Atom.make "R" [ Term.V x; Term.V y ]) in
  (* Two optionals: y appears in S (only y=1 qualifies), and x=0 (which
     forces y=1 too) — both satisfiable together. *)
  let soft1 = Formula.Atom (Atom.make "S" [ Term.V y; Term.int 5 ]) in
  let soft2 = Formula.Eq (Term.V x, Term.int 0) in
  (match Solver.Soft.solve db ~hard ~soft:[ soft1; soft2 ] with
   | Some outcome ->
     Alcotest.(check int) "both optionals satisfied" 2 (Solver.Soft.satisfied_count outcome)
   | None -> Alcotest.fail "hard should be satisfiable");
  (* Conflicting optionals: x=2 excludes y=1; maximizer picks exactly one. *)
  let soft3 = Formula.Eq (Term.V x, Term.int 2) in
  (match Solver.Soft.solve db ~hard ~soft:[ soft1; soft3 ] with
   | Some outcome -> Alcotest.(check int) "one of two" 1 (Solver.Soft.satisfied_count outcome)
   | None -> Alcotest.fail "hard should be satisfiable");
  (* Unsatisfiable hard formula. *)
  let impossible = Formula.Atom (Atom.make "R" [ Term.int 9; Term.int 9 ]) in
  Alcotest.(check bool) "hard unsat" true (Solver.Soft.solve db ~hard:impossible ~soft:[ soft1 ] = None)

let test_cache_extension () =
  let db = make_db [ (0, 1); (1, 2) ] [] in
  let cache = Solver.Cache.create () in
  let x = Term.fresh_var "x" and y = Term.fresh_var "y" in
  let f1 = Formula.Atom (Atom.make "R" [ Term.V x; Term.int 1 ]) in
  (match Solver.Cache.extend_or_resolve cache db ~new_clauses:f1 ~full_formula:(lazy f1) with
   | Some _ -> ()
   | None -> Alcotest.fail "first solve failed");
  Alcotest.(check int) "first was a full solve" 1 (Solver.Cache.stats cache).Solver.Cache.full_solves;
  (* Extend with a second clause over a new variable: must hit. *)
  let f2 = Formula.Atom (Atom.make "R" [ Term.int 1; Term.V y ]) in
  (match
     Solver.Cache.extend_or_resolve cache db ~new_clauses:f2
       ~full_formula:(lazy (Formula.and_ [ f1; f2 ]))
   with
   | Some _ -> ()
   | None -> Alcotest.fail "extension failed");
  Alcotest.(check int) "extension hit" 1 (Solver.Cache.stats cache).Solver.Cache.extension_hits;
  (* A contradictory clause: extension misses, full solve fails. *)
  let f3 = Formula.Atom (Atom.make "R" [ Term.int 9; Term.int 9 ]) in
  Alcotest.(check bool) "unsat refused" true
    (Solver.Cache.extend_or_resolve cache db ~new_clauses:f3
       ~full_formula:(lazy (Formula.and_ [ f1; f2; f3 ]))
     = None);
  (* Witness survives rejection. *)
  Alcotest.(check bool) "witness kept" true (Option.is_some (Solver.Cache.witness cache))

let test_cache_revalidate () =
  let db = make_db [ (0, 1) ] [] in
  let cache = Solver.Cache.create () in
  let x = Term.fresh_var "x" in
  let f = Formula.Atom (Atom.make "R" [ Term.V x; Term.int 1 ]) in
  ignore (Solver.Cache.extend_or_resolve cache db ~new_clauses:f ~full_formula:(lazy f));
  Alcotest.(check bool) "valid after solve" true (Solver.Cache.revalidate cache db f);
  (* Remove the supporting row: witness must be dropped. *)
  ignore (Database.apply_ops db [ Database.Delete ("R", Tuple.of_list [ Value.Int 0; Value.Int 1 ]) ]);
  Alcotest.(check bool) "invalid after delete" false (Solver.Cache.revalidate cache db f);
  Alcotest.(check bool) "witness dropped" true (Solver.Cache.witness cache = None)

let test_cache_multi_witness () =
  let db = make_db [ (0, 1); (1, 2); (2, 3) ] [] in
  let cache = Solver.Cache.create ~capacity:3 () in
  let x = Term.fresh_var "x" and y = Term.fresh_var "y" in
  let f = Formula.Atom (Atom.make "R" [ Term.V x; Term.V y ]) in
  ignore (Solver.Cache.extend_or_resolve cache db ~new_clauses:f ~full_formula:(lazy f));
  Alcotest.(check int) "one witness after solve" 1 (List.length (Solver.Cache.witnesses cache));
  (* Refill tops the cache up to capacity with distinct solutions. *)
  Alcotest.(check int) "refilled to capacity" 3 (Solver.Cache.refill cache db f);
  (* Deleting a supporting row drops exactly the witnesses it carried. *)
  ignore (Database.apply_ops db [ Database.Delete ("R", Tuple.of_list [ Value.Int 0; Value.Int 1 ]) ]);
  Alcotest.(check bool) "still valid via spare witnesses" true
    (Solver.Cache.revalidate cache db f);
  Alcotest.(check int) "one witness dropped" 2 (List.length (Solver.Cache.witnesses cache));
  (* set_witness is authoritative: spares are dropped. *)
  (match Solver.Cache.witness cache with
   | Some w -> Solver.Cache.set_witness cache w
   | None -> Alcotest.fail "expected a witness");
  Alcotest.(check int) "spares dropped" 1 (List.length (Solver.Cache.witnesses cache))

let test_cache_spare_absorbs_extension () =
  (* With two witnesses cached, an extension that contradicts the primary
     must still hit via the spare. *)
  let db = make_db [ (0, 1); (1, 2) ] [] in
  let cache = Solver.Cache.create ~capacity:2 () in
  let x = Term.fresh_var "x" and y = Term.fresh_var "y" in
  let f = Formula.Atom (Atom.make "R" [ Term.V x; Term.V y ]) in
  ignore (Solver.Cache.extend_or_resolve cache db ~new_clauses:f ~full_formula:(lazy f));
  ignore (Solver.Cache.refill cache db f);
  Alcotest.(check int) "two witnesses" 2 (List.length (Solver.Cache.witnesses cache));
  (* New clause: x must be 1 — contradicts whichever witness picked x=0. *)
  let clause = Formula.Eq (Term.V x, Term.int 1) in
  (match
     Solver.Cache.extend_or_resolve cache db ~new_clauses:clause
       ~full_formula:(lazy (Formula.and_ [ f; clause ]))
   with
   | Some w ->
     Alcotest.(check bool) "x pinned to 1" true
       (Term.equal (Subst.resolve w (Term.V x)) (Term.int 1))
   | None -> Alcotest.fail "extension should succeed");
  let stats = Solver.Cache.stats cache in
  Alcotest.(check int) "no full re-solve needed" 1 stats.Solver.Cache.full_solves

let test_order_constraints_in_search () =
  let db = make_db [ (0, 1); (1, 2); (2, 3) ] [] in
  let x = Term.fresh_var "x" and y = Term.fresh_var "y" in
  let atom = Formula.Atom (Atom.make "R" [ Term.V x; Term.V y ]) in
  (* x < y holds on every row of this R; y < x on none. *)
  Alcotest.(check bool) "lt sat" true
    (Solver.Backtrack.satisfiable db (Formula.and_ [ atom; Formula.lt (Term.V x) (Term.V y) ]));
  Alcotest.(check bool) "reverse lt unsat" false
    (Solver.Backtrack.satisfiable db (Formula.and_ [ atom; Formula.lt (Term.V y) (Term.V x) ]));
  (* Le boundary. *)
  (match
     Solver.Backtrack.solve db
       (Formula.and_ [ atom; Formula.le (Term.int 2) (Term.V x) ])
   with
   | Some s ->
     Alcotest.(check bool) "x >= 2" true
       (Term.equal (Subst.resolve s (Term.V x)) (Term.int 2))
   | None -> Alcotest.fail "le should be satisfiable");
  (* Vacuous order constraint on an unconstrained variable. *)
  let free = Term.fresh_var "free" in
  Alcotest.(check bool) "vacuous lt" true
    (Solver.Backtrack.satisfiable db (Formula.lt (Term.V free) (Term.int 0)));
  (* LIMIT-1 path agrees on the ground cases. *)
  Alcotest.(check bool) "limit-one lt" true
    (Solver.Limit_one.satisfiable db (Formula.and_ [ atom; Formula.lt (Term.V x) (Term.V y) ]));
  Alcotest.(check bool) "limit-one reverse lt" false
    (Solver.Limit_one.satisfiable db (Formula.and_ [ atom; Formula.lt (Term.V y) (Term.V x) ]))

let test_node_limit () =
  (* A pigeonhole-ish instance with a tiny node budget must raise. *)
  let rows = List.init 12 (fun i -> (i, i)) in
  let db = make_db rows [] in
  let vars = List.init 8 (fun i -> Term.fresh_var (Printf.sprintf "p%d" i)) in
  let atoms = List.map (fun v -> Formula.Atom (Atom.make "R" [ Term.V v; Term.V v ])) vars in
  let rec all_pairs = function
    | [] -> []
    | v :: rest -> List.map (fun w -> Formula.Neq (Term.V v, Term.V w)) rest @ all_pairs rest
  in
  let f = Formula.And (atoms @ all_pairs vars) in
  Alcotest.(check bool) "tiny budget raises" true
    (match Solver.Backtrack.solve ~node_limit:3 db f with
     | exception Solver.Backtrack.Too_many_nodes -> true
     | _ -> false);
  Alcotest.(check bool) "normal budget solves" true (Solver.Backtrack.satisfiable db f)

(* A choice point over a relation with no table is an empty candidate
   stream: one dead end, whichever entry point searched it. *)
let test_unknown_relation_backtracks () =
  let db = make_db [ (0, 1) ] [] in
  let x = Term.fresh_var "x" in
  let f = Formula.Atom (Atom.make "T" [ Term.V x; Term.int 0 ]) in
  let s1 = Solver.Backtrack.fresh_stats () and s2 = Solver.Backtrack.fresh_stats () in
  Alcotest.(check bool) "solve finds nothing" true (Solver.Backtrack.solve ~stats:s1 db f = None);
  Alcotest.(check int) "solutions finds nothing" 0
    (List.length (Solver.Backtrack.solutions ~stats:s2 db f));
  Alcotest.(check int) "solve counts one backtrack" 1 s1.Solver.Backtrack.backtracks;
  Alcotest.(check int) "solutions counts one backtrack" 1 s2.Solver.Backtrack.backtracks

(* A relation with no table is empty everywhere: a ground atom over it is
   false, its negation and key-freedom hold — in the search's propagation
   and in [Formula.eval] alike. *)
let test_unknown_relation_ground () =
  let db = make_db [ (0, 1) ] [] in
  let x = Term.fresh_var "x" in
  let r = Formula.Atom (Atom.make "R" [ Term.V x; Term.int 1 ]) in
  let t00 = Atom.make "T" [ Term.int 0; Term.int 0 ] in
  let no_vars _ = None in
  let cases =
    [ ("ground atom", Formula.Atom t00, false);
      ("ground negated atom", Formula.Not_atom t00, true);
      ("ground key-free atom", Formula.Key_free t00, true);
    ]
  in
  List.iter
    (fun (name, f, holds) ->
      Alcotest.(check bool) ("eval: " ^ name) holds (Formula.eval db no_vars f);
      Alcotest.(check bool) ("solve: " ^ name) holds
        (Solver.Backtrack.satisfiable db (Formula.And [ r; f ]));
      Alcotest.(check bool) ("limit-one: " ^ name) holds
        (Solver.Limit_one.satisfiable db (Formula.And [ r; f ])))
    cases;
  (* The atom becomes ground only once the search binds its variable. *)
  let late = Formula.Not_atom (Atom.make "T" [ Term.V x; Term.int 0 ]) in
  Alcotest.(check bool) "solve: negated atom ground by a binding" true
    (Solver.Backtrack.satisfiable db (Formula.And [ r; late ]))

(* [case], sometimes with an atom over the table-less relation T conjoined
   and sometimes with the ground atom T(0,0).  The first atom's variable
   appears nowhere else, so it stays a choice point over an empty
   candidate stream; the ground atom is false, a propagation conflict. *)
let untabled = Term.fresh_var "u"

let missing_table_case =
  let gen =
    let open QCheck.Gen in
    let* choice = bool and* ground = bool and* f = formula_case_gen and* rows = db_gen in
    let t = Formula.Atom (Atom.make "T" [ Term.V untabled; Term.int 0 ]) in
    let t00 = Formula.Atom (Atom.make "T" [ Term.int 0; Term.int 0 ]) in
    let extra = (if choice then [ t ] else []) @ if ground then [ t00 ] else [] in
    return (Formula.And (f :: extra), rows)
  in
  QCheck.make gen ~print:(fun (f, _) -> Formula.to_string f)

let prop_one_search_two_leaf_policies =
  QCheck.Test.make ~name:"solve = solutions ~limit:1 (witness and effort)" ~count:500
    missing_table_case (fun (f, (r_rows, s_rows)) ->
      let module B = Solver.Backtrack in
      let db = make_db r_rows s_rows in
      let s1 = B.fresh_stats () and s2 = B.fresh_stats () in
      let witness = B.solve ~stats:s1 db f in
      let first = B.solutions ~stats:s2 ~limit:1 db f in
      let vars = Term.Var_set.elements (Formula.vars f) in
      let agrees = function
        | [] -> Option.is_none witness
        | w :: _ ->
          (match witness with
           | None -> false
           | Some s ->
             List.for_all
               (fun v -> Term.equal (Subst.resolve s (Term.V v)) (Subst.resolve w (Term.V v)))
               vars)
      in
      let effort s = B.(s.nodes, s.candidates, s.backtracks, s.propagations) in
      List.length first <= 1 && agrees first && agrees (B.solutions db f) && effort s1 = effort s2)

(* Formulas that drive the search's event-driven paths: variable-variable
   equality chains inside ORs (a binding hands its watchers on to another
   variable), OR branches that are conjunctions (a collapsed OR puts
   several goals in its place), order comparisons, and a seed that
   pre-binds some variables to constants or to other variables.  Every
   variable of a comparison is anchored in the one-column table D, which
   holds the whole universe, so comparisons are ground at every leaf. *)
let watch_pool = Array.init 5 (fun i -> Term.fresh_var (Printf.sprintf "w%d" i))

let watch_case_gen =
  let open QCheck.Gen in
  let var_gen = map (fun i -> watch_pool.(i)) (int_range 0 4) in
  let const_gen = map Term.int (int_range 0 3) in
  let term_gen = frequency [ (3, map (fun v -> Term.V v) var_gen); (1, const_gen) ] in
  let atom_gen =
    let* rel = oneofl [ "R"; "S" ] and* t1 = term_gen and* t2 = term_gen in
    return (Atom.make rel [ t1; t2 ])
  in
  let chain_gen =
    let* vs = list_size (int_range 2 4) var_gen in
    let rec links = function
      | a :: (b :: _ as rest) -> Formula.Eq (Term.V a, Term.V b) :: links rest
      | _ -> []
    in
    return (Formula.And (links vs))
  in
  let leaf_gen =
    frequency
      [ (3, map (fun a -> Formula.Atom a) atom_gen);
        (1, map (fun a -> Formula.Not_atom a) atom_gen);
        (2, map2 (fun t1 t2 -> Formula.Eq (t1, t2)) term_gen term_gen);
        (2, map2 (fun t1 t2 -> Formula.Neq (t1, t2)) term_gen term_gen);
        (1, map2 (fun t1 t2 -> Formula.Lt (t1, t2)) term_gen term_gen);
        (1, map2 (fun t1 t2 -> Formula.Le (t1, t2)) term_gen term_gen);
        (2, chain_gen);
      ]
  in
  let branch_gen =
    frequency [ (2, leaf_gen); (3, map (fun fs -> Formula.And fs) (list_size (int_range 2 3) leaf_gen)) ]
  in
  let or_gen = map (fun fs -> Formula.Or fs) (list_size (int_range 2 3) branch_gen) in
  let* leaves = list_size (int_range 1 4) leaf_gen in
  let* ors = list_size (int_range 1 3) or_gen in
  let f = Formula.And (leaves @ ors) in
  let rec compared = function
    | Formula.Lt (t1, t2) | Formula.Le (t1, t2) -> [ t1; t2 ]
    | Formula.And fs | Formula.Or fs -> List.concat_map compared fs
    | _ -> []
  in
  let anchors =
    List.sort_uniq Term.compare (compared f)
    |> List.filter Term.is_var
    |> List.map (fun t -> Formula.Atom (Atom.make "D" [ t ]))
  in
  (* Bind a variable to a constant or to a later pool variable, so seed
     chains are acyclic. *)
  let binding_gen i =
    frequency
      ([ (4, return None); (1, map (fun t -> Some t) const_gen) ]
      @ if i < 4 then [ (1, map (fun j -> Some (Term.V watch_pool.(j))) (int_range (i + 1) 4)) ] else [])
  in
  let* seed =
    flatten_l (List.init 5 binding_gen)
    |> map (fun bs ->
           List.fold_left
             (fun (i, acc) b ->
               (i + 1, match b with Some t -> Subst.bind watch_pool.(i) t acc | None -> acc))
             (0, Subst.empty) bs
           |> snd)
  in
  return (Formula.And (f :: anchors), seed)

let watch_db r_rows s_rows =
  let db = make_db r_rows s_rows in
  let d =
    Database.create_table db
      (Schema.make ~name:"D" ~columns:[ Schema.column "a" Value.Tint ] ())
  in
  List.iter (fun a -> ignore (Relational.Table.insert d (Tuple.of_list [ Value.Int a ]))) universe;
  db

(* The seed as constraints, so brute force and the model check see it. *)
let with_seed f seed =
  Formula.And (f :: List.map (fun (t1, t2) -> Formula.Eq (t1, t2)) (Subst.equations seed))

let prop_event_driven_paths =
  QCheck.Test.make ~name:"watch hand-off, splices, comparisons, seeds = brute force"
    ~count:1000
    (QCheck.make
       (QCheck.Gen.pair watch_case_gen db_gen)
       ~print:(fun ((f, seed), _) -> Formula.to_string f ^ " seed " ^ Subst.to_string seed))
    (fun ((f, seed), (r_rows, s_rows)) ->
      let module B = Solver.Backtrack in
      let db = watch_db r_rows s_rows in
      let s1 = B.fresh_stats () and s2 = B.fresh_stats () in
      let witness = B.solve ~seed ~stats:s1 db f in
      let first = B.solutions ~seed ~stats:s2 ~limit:1 db f in
      let spec = with_seed f seed in
      let effort s = B.(s.nodes, s.candidates, s.backtracks, s.propagations) in
      let sound =
        match witness with
        | None -> not (brute_force_satisfiable db universe spec)
        | Some subst ->
          (* Variables the search left unbound get distinct values far
             outside the database (vacuous disequalities). *)
          let fresh = Hashtbl.create 4 in
          let valuation v =
            match Subst.resolve subst (Term.V v) with
            | Term.C value -> Some value
            | Term.V rep ->
              (match Hashtbl.find_opt fresh rep.Term.vid with
               | Some value -> Some value
               | None ->
                 let value = Value.Int (1000 + Hashtbl.length fresh) in
                 Hashtbl.add fresh rep.Term.vid value;
                 Some value)
          in
          Formula.eval db valuation spec
      in
      let same_first =
        match witness, first with
        | None, [] -> true
        | Some w, [ w' ] ->
          Array.for_all
            (fun v -> Term.equal (Subst.resolve w (Term.V v)) (Subst.resolve w' (Term.V v)))
            watch_pool
        | _ -> false
      in
      sound && same_first && effort s1 = effort s2)

let suite =
  [ QCheck_alcotest.to_alcotest prop_backtrack_agrees_with_brute_force;
    QCheck_alcotest.to_alcotest prop_backtrack_witness_is_model;
    QCheck_alcotest.to_alcotest prop_backtrack_complete;
    QCheck_alcotest.to_alcotest prop_limit_one_agrees;
    Alcotest.test_case "solutions enumeration" `Quick test_solutions_complete;
    Alcotest.test_case "seeded solve" `Quick test_seeded_solve;
    Alcotest.test_case "soft maximization" `Quick test_soft_maximization;
    Alcotest.test_case "cache extension" `Quick test_cache_extension;
    Alcotest.test_case "cache revalidation" `Quick test_cache_revalidate;
    Alcotest.test_case "cache multi-witness" `Quick test_cache_multi_witness;
    Alcotest.test_case "cache spare absorbs extension" `Quick test_cache_spare_absorbs_extension;
    Alcotest.test_case "order constraints" `Quick test_order_constraints_in_search;
    Alcotest.test_case "node limit" `Quick test_node_limit;
    Alcotest.test_case "unknown relation backtracks once" `Quick
      test_unknown_relation_backtracks;
    Alcotest.test_case "unknown relation is empty when ground" `Quick
      test_unknown_relation_ground;
    QCheck_alcotest.to_alcotest prop_one_search_two_leaf_policies;
    QCheck_alcotest.to_alcotest prop_event_driven_paths;
  ]
