(* The LIMIT-1 compilation path.

   The paper's prototype answers each satisfiability check by issuing a
   `LIMIT 1` SQL join query against MySQL.  This module mirrors that
   architecture: the composed body is expanded to disjuncts, each disjunct
   is planned as a *static* join order (with the bounded-lookahead planner
   standing in for MySQL's optimizer), and evaluated as a fixed-order
   indexed nested-loop join that stops at the first row.

   Unlike {!Backtrack} the atom order is chosen once per disjunct, which is
   exactly what makes the paper's "bad query plan" anomaly reproducible:
   with a small [search_depth] the planner occasionally commits to a poor
   order and the query runs orders of magnitude slower. *)

module Table = Relational.Table
module Database = Relational.Database
open Logic

exception Formula_too_large

let default_max_disjuncts = 4096

(* A disjunct: positive atoms plus residual constraints. *)
type disjunct = {
  atoms : Atom.t list;
  eqs : (Term.t * Term.t) list;
  neqs : (Term.t * Term.t) list;
  cmps : Formula.t list; (* residual Lt/Le leaves *)
  not_atoms : Atom.t list;
  key_frees : Atom.t list;
}

let empty_disjunct =
  { atoms = []; eqs = []; neqs = []; cmps = []; not_atoms = []; key_frees = [] }

(* Distribute a formula into DNF, counting disjuncts against [max]. *)
let dnf ?(max_disjuncts = default_max_disjuncts) formula =
  let rec go f : disjunct list =
    match f with
    | Formula.True -> [ empty_disjunct ]
    | Formula.False -> []
    | Formula.Atom a -> [ { empty_disjunct with atoms = [ a ] } ]
    | Formula.Not_atom a -> [ { empty_disjunct with not_atoms = [ a ] } ]
    | Formula.Key_free a -> [ { empty_disjunct with key_frees = [ a ] } ]
    | Formula.Eq (x, y) -> [ { empty_disjunct with eqs = [ (x, y) ] } ]
    | Formula.Neq (x, y) -> [ { empty_disjunct with neqs = [ (x, y) ] } ]
    | (Formula.Lt _ | Formula.Le _) as f -> [ { empty_disjunct with cmps = [ f ] } ]
    | Formula.Or fs -> List.concat_map go fs
    | Formula.And fs ->
      List.fold_left
        (fun acc f ->
          let here = go f in
          let product =
            List.concat_map
              (fun d1 ->
                List.map
                  (fun d2 ->
                    {
                      atoms = d1.atoms @ d2.atoms;
                      eqs = d1.eqs @ d2.eqs;
                      neqs = d1.neqs @ d2.neqs;
                      cmps = d1.cmps @ d2.cmps;
                      not_atoms = d1.not_atoms @ d2.not_atoms;
                      key_frees = d1.key_frees @ d2.key_frees;
                    })
                  here)
              acc
          in
          if List.length product > max_disjuncts then raise Formula_too_large;
          product)
        [ empty_disjunct ] fs
  in
  let disjuncts = go formula in
  if List.length disjuncts > max_disjuncts then raise Formula_too_large;
  disjuncts

(* Evaluate one disjunct with a fixed atom order; [tick] runs before
   every atom expansion and raises once a budget has run out. *)
let solve_disjunct ?(search_depth = max_int) ~stats ~tick db seed d =
  (* Equalities first: they only strengthen the seed or fail the disjunct. *)
  let subst =
    List.fold_left
      (fun acc (x, y) ->
        match acc with
        | None -> None
        | Some s -> Unify.unify_terms s x y)
      (Some seed) d.eqs
  in
  match subst with
  | None -> None
  | Some subst ->
    let order = Join_order.plan ~search_depth db (List.map (Subst.apply_atom subst) d.atoms) in
    (* A negated or key-free atom holds once ground by the ground semantics
       (where a relation with no table is empty); non-ground, it is
       vacuously satisfiable. *)
    let ground_holds wrap subst a =
      let a = Subst.apply_atom subst a in
      (not (Atom.is_ground a)) || Formula.eval db (fun _ -> None) (wrap a)
    in
    let check_residuals subst =
      let neq_ok =
        List.for_all
          (fun (x, y) ->
            match Subst.resolve subst x, Subst.resolve subst y with
            | Term.C a, Term.C b -> not (Relational.Value.equal a b)
            | rx, ry ->
              (* Two aliased variables are equal whatever they get bound
                 to; distinct variables are vacuously distinct. *)
              not (Term.equal rx ry))
          d.neqs
      in
      neq_ok
      && List.for_all
           (fun f ->
             match Formula.apply_subst subst f with
             | Formula.False -> false
             | _ -> true (* true, or non-ground: vacuously satisfiable *))
           d.cmps
      && List.for_all (ground_holds Formula.not_atom subst) d.not_atoms
      && List.for_all (ground_holds Formula.key_free subst) d.key_frees
    in
    let rec join subst = function
      | [] -> if check_residuals subst then Some subst else None
      | atom :: rest ->
        tick ();
        stats.Backtrack.nodes <- stats.Backtrack.nodes + 1;
        let atom = Subst.apply_atom subst atom in
        (match Database.find_table db atom.Atom.rel with
         | None -> None
         | Some table ->
           let rec try_tuples candidates =
             match Seq.uncons candidates with
             | None ->
               stats.Backtrack.backtracks <- stats.Backtrack.backtracks + 1;
               None
             | Some (tuple, more) ->
               stats.Backtrack.candidates <- stats.Backtrack.candidates + 1;
               (match Unify.mgu ~subst atom (Atom.of_tuple atom.Atom.rel tuple) with
                | Some subst' ->
                  (match join subst' rest with
                   | Some _ as result -> result
                   | None -> try_tuples more)
                | None -> try_tuples more)
           in
           try_tuples (Table.lookup_seq table (Atom.to_pattern atom)))
    in
    join subst order

(* The budgets mean what they mean in {!Backtrack.solve}: [node_limit]
   expanded atoms per call, across all disjuncts, and an absolute
   monotonic-clock [deadline_ns]. *)
let solve ?search_depth ?max_disjuncts ?(node_limit = Backtrack.default_node_limit) ?deadline_ns
    ?(seed = Subst.empty) ?(stats = Backtrack.fresh_stats ()) db formula =
  let base_nodes = stats.Backtrack.nodes in
  let tick () =
    let nodes = stats.Backtrack.nodes - base_nodes in
    if nodes > node_limit then raise Backtrack.Too_many_nodes;
    Backtrack.check_deadline deadline_ns nodes
  in
  let formula = Formula.apply_subst seed formula in
  let disjuncts = dnf ?max_disjuncts formula in
  List.find_map (fun d -> solve_disjunct ?search_depth ~stats ~tick db seed d) disjuncts

let satisfiable ?search_depth ?max_disjuncts ?node_limit ?deadline_ns ?seed ?stats db formula =
  Option.is_some
    (solve ?search_depth ?max_disjuncts ?node_limit ?deadline_ns ?seed ?stats db formula)
