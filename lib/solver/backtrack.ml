(* Grounding search: find a valuation of a composed-body formula over the
   extensional database, or report that none exists.

   This is the satisfiability checker at the heart of the quantum database
   invariant (Section 3.2.1).  The paper's prototype compiles the composed
   body to a LIMIT 1 SQL query; we search directly with the same effect —
   an indexed nested-loop join that stops at the first answer:

   - equalities are unified eagerly (union-find style via Subst),
   - positive atoms are choice points enumerated through table indexes,
     picked most-constrained-first (smallest candidate estimate),
   - OR nodes (from unification predicates of inserts) are choice points
     over branches,
   - disequalities and negated atoms are deferred until ground, then
     checked; constraints still non-ground when all atoms are placed are
     vacuously satisfiable because the value universe is unbounded and the
     remaining variables are otherwise unconstrained. *)

module Value = Relational.Value
module Table = Relational.Table
module Database = Relational.Database
open Logic

type stats = {
  mutable nodes : int;
  mutable candidates : int;
  mutable backtracks : int;
  mutable propagations : int;
}

let fresh_stats () = { nodes = 0; candidates = 0; backtracks = 0; propagations = 0 }

let add_stats ~into s =
  into.nodes <- into.nodes + s.nodes;
  into.candidates <- into.candidates + s.candidates;
  into.backtracks <- into.backtracks + s.backtracks;
  into.propagations <- into.propagations + s.propagations

exception Too_many_nodes
exception Timed_out

(* Deadline checks are amortized: the monotonic clock is read once per
   [deadline_stride] expanded nodes, so an armed deadline costs one land
   and compare per choice point on the hot path. *)
let deadline_stride = 256

let check_deadline deadline_ns nodes =
  match deadline_ns with
  | None -> ()
  | Some d ->
    if nodes land (deadline_stride - 1) = 0 && Int64.compare (Obs.Mclock.now_ns ()) d > 0 then
      raise Timed_out

(* Internal goals after decomposing the conjunctive structure. *)
type goal =
  | G_atom of Atom.t
  | G_or of Formula.t list
  | G_neq of Term.t * Term.t
  | G_not_atom of Atom.t
  | G_key_free of Atom.t
  | G_lt of Term.t * Term.t
  | G_le of Term.t * Term.t

(* Decompose a conjunction into goals in front of [rest], or [None] when
   it contains [False].  Formula order is preserved: ties in the branching
   heuristic fall back to list order, so callers can put the most
   conflict-prone obligations first (the grounding path relies on this to
   keep failures shallow). *)
let goals_of_formula f rest =
  let rec push f rest =
    match f with
    | Formula.True -> rest
    | Formula.False -> raise_notrace Exit
    | Formula.Atom a -> G_atom a :: rest
    | Formula.Not_atom a -> G_not_atom a :: rest
    | Formula.Key_free a -> G_key_free a :: rest
    | Formula.Eq _ ->
      (* Equalities are consumed by propagation before decomposition; keep
         them as a one-branch Or so the generic path handles stragglers. *)
      G_or [ f ] :: rest
    | Formula.Neq (t1, t2) -> G_neq (t1, t2) :: rest
    | Formula.Lt (t1, t2) -> G_lt (t1, t2) :: rest
    | Formula.Le (t1, t2) -> G_le (t1, t2) :: rest
    | Formula.And fs -> List.fold_right push fs rest
    | Formula.Or fs -> G_or fs :: rest
  in
  match push f rest with
  | goals -> Some goals
  | exception Exit -> None

(* Simplify a formula under the current bindings; cheap and local. *)
let simplify subst f = Formula.apply_subst subst f

(* One propagation pass over the goal list.  Returns [None] on conflict,
   otherwise the simplified remaining goals and the extended substitution.
   [changed] reports whether anything was learned, so the caller can run to
   a fixpoint. *)
let propagate db stats subst goals =
  let changed = ref false in
  let rec go subst acc = function
    | [] -> Some (subst, List.rev acc, !changed)
    | G_atom a :: rest ->
      let a = Subst.apply_atom subst a in
      if Atom.is_ground a then begin
        stats.propagations <- stats.propagations + 1;
        changed := true;
        if Database.mem_tuple db a.Atom.rel (Atom.to_tuple a) then go subst acc rest
        else None
      end
      else go subst (G_atom a :: acc) rest
    | G_neq (t1, t2) :: rest ->
      comparison subst acc rest Formula.neq (fun t1 t2 -> G_neq (t1, t2)) t1 t2
    | G_lt (t1, t2) :: rest ->
      comparison subst acc rest Formula.lt (fun t1 t2 -> G_lt (t1, t2)) t1 t2
    | G_le (t1, t2) :: rest ->
      comparison subst acc rest Formula.le (fun t1 t2 -> G_le (t1, t2)) t1 t2
    | G_not_atom a :: rest ->
      let a = Subst.apply_atom subst a in
      if Atom.is_ground a then begin
        changed := true;
        if Database.mem_tuple db a.Atom.rel (Atom.to_tuple a) then None else go subst acc rest
      end
      else go subst (G_not_atom a :: acc) rest
    | G_key_free a :: rest ->
      let a = Subst.apply_atom subst a in
      if Atom.is_ground a then begin
        changed := true;
        if Database.key_occupied db a.Atom.rel (Atom.to_tuple a) then None
        else go subst acc rest
      end
      else go subst (G_key_free a :: acc) rest
    | G_or fs :: rest ->
      let fs = List.map (simplify subst) fs in
      (match Formula.or_ fs with
       | Formula.True ->
         changed := true;
         go subst acc rest
       | Formula.False -> None
       | Formula.Eq (t1, t2) ->
         (* The disjunction collapsed to a single equality: unify now. *)
         changed := true;
         (match Unify.unify_terms subst t1 t2 with
          | Some subst -> go subst acc rest
          | None -> None)
       | Formula.Or fs -> go subst (G_or fs :: acc) rest
       | f ->
         (* Collapsed to one formula: splice its goals in. *)
         changed := true;
         (match goals_of_formula f rest with
          | Some rest -> go subst acc rest
          | None -> None))
  (* A comparison goal ([decide] is [Formula.neq], [lt] or [le]): drop it
     once it holds, fail once it cannot, otherwise keep it, resolved. *)
  and comparison subst acc rest decide goal t1 t2 =
    let t1 = Subst.resolve subst t1 and t2 = Subst.resolve subst t2 in
    match decide t1 t2 with
    | Formula.True ->
      changed := true;
      go subst acc rest
    | Formula.False -> None
    | _ -> go subst (goal t1 t2 :: acc) rest
  in
  go subst [] goals

let rec propagate_fix db stats subst goals =
  match propagate db stats subst goals with
  | None -> None
  | Some (subst', goals', changed) ->
    if changed then propagate_fix db stats subst' goals' else Some (subst', goals')

(* Estimate cache for one solve call: [pick_branch] re-ranks every goal at
   every choice point, and distinct goals with the same post-substitution
   (relation, pattern) shape share one [Table.estimate_matches] answer.
   Entries remember the table version they were computed at, so a table
   mutation invalidates them (a stale entry misses instead of lying). *)
type est_cache = (string * Table.pattern, int * int) Hashtbl.t

(* Candidate estimate for branching choice, through the cache. *)
let atom_estimate_cached db (cache : est_cache) subst a =
  let a = Subst.apply_atom subst a in
  match Database.find_table db a.Atom.rel with
  | None -> 0
  | Some table ->
    let pat = Atom.to_pattern a in
    let key = (a.Atom.rel, pat) in
    let version = Table.version table in
    (match Hashtbl.find_opt cache key with
     | Some (v, est) when v = version -> est
     | _ ->
       let est = Table.estimate_matches table pat in
       Hashtbl.replace cache key (version, est);
       est)

(* Does any branch of the disjunction contain a positive atom?  Such OR
   nodes are *generators* (e.g. ground-on-db vs ground-on-pending-insert
   options) and are worth branching early; OR nodes made purely of
   (dis)equalities are *constraints* (negated unification predicates) and
   branching them first multiplies the search by 2^#pairs — they must be
   left to propagation, which decides them as atoms ground. *)
let rec formula_has_atom = function
  | Formula.Atom _ -> true
  | Formula.And fs | Formula.Or fs -> List.exists formula_has_atom fs
  | Formula.True | Formula.False | Formula.Not_atom _ | Formula.Key_free _ | Formula.Eq _
  | Formula.Neq _ | Formula.Lt _ | Formula.Le _ -> false

(* Pick the goal to branch on: the positive atom or generator-OR node with
   the fewest alternatives; constraint-OR nodes only when nothing else is
   left.  Returns the goal and the list without it. *)
let pick_branch db cache subst goals =
  let best = ref None and fallback = ref None in
  let consider cell goal cost =
    match !cell with
    | Some (_, c) when c <= cost -> ()
    | _ -> cell := Some (goal, cost)
  in
  (try
     List.iter
       (fun goal ->
         match goal with
         | G_atom a ->
           let cost = atom_estimate_cached db cache subst a in
           consider best goal cost;
           (* An empty candidate set cannot be beaten, and ties break to
              the first goal in list order either way: stop scanning.
              (OR goals always cost >= 1, so this is the global minimum.) *)
           if cost = 0 then raise Exit
         | G_or fs ->
           if List.exists formula_has_atom fs then consider best goal (List.length fs)
           else consider fallback goal (List.length fs)
         | G_neq _ | G_not_atom _ | G_key_free _ | G_lt _ | G_le _ -> ())
       goals
   with Exit -> ());
  let chosen =
    match !best with
    | Some _ as b -> b
    | None -> !fallback
  in
  match chosen with
  | None -> None
  | Some (goal, _) ->
    let removed = ref false in
    let rest =
      List.filter
        (fun g ->
          if (not !removed) && g == goal then begin
            removed := true;
            false
          end
          else true)
        goals
    in
    Some (goal, rest)

let default_node_limit = 2_000_000

(* The one search loop behind [solve] and [solutions].  Each node
   propagates to a fixpoint, picks the most constrained goal and tries its
   alternatives in order: tuples in primary-key order for an atom, branches
   in list order for an OR node.  [leaf] sees every satisfying valuation
   and returns [true] to stop the whole search.  A choice point none of
   whose alternatives reached a leaf is one backtrack; a relation with no
   table is an empty candidate stream. *)
let search ?(node_limit = default_node_limit) ?deadline_ns db stats ~leaf subst goals =
  (* The budget is per call: [stats] may be a long-lived cumulative
     counter shared across the engine's lifetime. *)
  let base_nodes = stats.nodes in
  let node_ceiling = base_nodes + node_limit in
  let cache : est_cache = Hashtbl.create 64 in
  let leaves = ref 0 in
  (* Each function returns [true] once [leaf] asked to stop. *)
  let rec expand subst goals =
    if stats.nodes > node_ceiling then raise Too_many_nodes;
    (* Stride relative to this call's entry: [stats] is cumulative and
       need not be 256-aligned, and the very first check (offset 0) makes
       an already-expired deadline fire before any search happens. *)
    check_deadline deadline_ns (stats.nodes - base_nodes);
    match propagate_fix db stats subst goals with
    | None -> false
    | Some (subst, goals) ->
      (match pick_branch db cache subst goals with
       | None ->
         (* Only deferred Neq / Not_atom goals remain, all with at least one
            unbound, otherwise-unconstrained variable: vacuously satisfiable
            over an unbounded value universe. *)
         incr leaves;
         leaf subst
       | Some (G_atom a, rest) ->
         stats.nodes <- stats.nodes + 1;
         let leaves0 = !leaves in
         let a = Subst.apply_atom subst a in
         (* Primary-key-ordered streaming enumeration, straight off the
            table's sorted index buckets: deterministic, no
            per-choice-point materialization or sort, and it *packs*
            witnesses into the low end of each resource domain, which
            keeps contiguous resources (whole seat rows) free for later
            coordination constraints.  Measurably better than hash order
            for the seeded grounding solves. *)
         let candidates =
           match Database.find_table db a.Atom.rel with
           | None -> Seq.empty
           | Some table -> Table.lookup_seq table (Atom.to_pattern a)
         in
         try_tuples a rest subst candidates || dead_end leaves0 a.Atom.rel
       | Some (G_or fs, rest) ->
         stats.nodes <- stats.nodes + 1;
         let leaves0 = !leaves in
         try_branches rest subst fs || dead_end leaves0 "or"
       | Some ((G_neq _ | G_not_atom _ | G_key_free _ | G_lt _ | G_le _), _) -> assert false)
  and try_tuples a rest subst candidates =
    match candidates () with
    | Seq.Nil -> false
    | Seq.Cons (tuple, more) ->
      stats.candidates <- stats.candidates + 1;
      (match Unify.mgu ~subst a (Atom.of_tuple a.Atom.rel tuple) with
       | Some subst' -> expand subst' rest
       | None -> false)
      || try_tuples a rest subst more
  and try_branches rest subst = function
    | [] -> false
    | branch :: more ->
      stats.candidates <- stats.candidates + 1;
      (match goals_of_formula (simplify subst branch) rest with
       | Some goals -> expand subst goals
       | None -> false)
      || try_branches rest subst more
  and dead_end leaves0 rel =
    if !leaves = leaves0 then begin
      stats.backtracks <- stats.backtracks + 1;
      if Obs.Trace.on () then
        Obs.Trace.instant ~cat:"solver"
          ~args:[ ("rel", Obs.Trace.Str rel); ("node", Obs.Trace.Int stats.nodes) ]
          "solver.backtrack"
    end;
    false
  in
  ignore (expand subst goals)

(* One span per call, reporting the search effort it added to the
   (possibly shared, cumulative) stats record. *)
let run span ?node_limit ?deadline_ns ?(seed = Subst.empty) ?stats ~found ~leaf db formula =
  let stats =
    match stats with
    | Some s -> s
    | None -> fresh_stats ()
  in
  let go () =
    match goals_of_formula (simplify seed formula) [] with
    | None -> ()
    | Some goals -> search ?node_limit ?deadline_ns db stats ~leaf seed goals
  in
  if not (Obs.Trace.on ()) then go ()
  else begin
    let nodes0 = stats.nodes and backtracks0 = stats.backtracks in
    let candidates0 = stats.candidates in
    Obs.Trace.span ~cat:"solver"
      ~args:(fun () ->
        [ ("nodes", Obs.Trace.Int (stats.nodes - nodes0));
          ("candidates", Obs.Trace.Int (stats.candidates - candidates0));
          ("backtracks", Obs.Trace.Int (stats.backtracks - backtracks0));
          ("found", Obs.Trace.Bool (found ()));
        ])
      span go
  end

let solve ?node_limit ?deadline_ns ?seed ?stats db formula =
  let result = ref None in
  run "solver.solve" ?node_limit ?deadline_ns ?seed ?stats db formula
    ~found:(fun () -> Option.is_some !result)
    ~leaf:(fun subst ->
      result := Some subst;
      true);
  !result

let satisfiable ?node_limit ?deadline_ns ?seed ?stats db formula =
  Option.is_some (solve ?node_limit ?deadline_ns ?seed ?stats db formula)

(* All valuations in search order, up to [limit]: read queries and the
   possible-worlds checks. *)
let solutions ?node_limit ?deadline_ns ?seed ?stats ?(limit = max_int) db formula =
  let results = ref [] and count = ref 0 in
  run "solver.solutions" ?node_limit ?deadline_ns ?seed ?stats db formula
    ~found:(fun () -> !results <> [])
    ~leaf:(fun subst ->
      results := subst :: !results;
      incr count;
      !count >= limit);
  List.rev !results
