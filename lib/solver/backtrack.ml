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
     remaining variables are otherwise unconstrained.

   Propagation is event-driven, in the style of a CDCL solver's watch
   lists.  Each call keeps its goals in numbered slots and a watch
   table from variable id to the slots that mention it.  A binding wakes
   only that variable's watchers; a variable bound to another variable
   hands its watchers on to that variable, so a goal is always watched at
   the current representative of each of its variables.  A woken goal is
   re-decided: an atom checks the table once ground, a comparison drops or
   fails once decided, an OR re-simplifies and is rewritten, unified, or
   collapsed into the goals it still holds.  Atom and OR slots also sit on
   a doubly-linked order list — the goal order, with an OR branch's goals
   in front and a collapsed OR's goals in its place — which is all that
   branching scans.  Every destructive step (slot kill, OR rewrite, slot
   allocation, watch-list move) goes on a trail that is undone on the way
   back up; the substitution itself stays persistent, so each valuation
   handed to a leaf is an ordinary [Subst.t]. *)

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
  | G_eq of Term.t * Term.t
  | G_neq of Term.t * Term.t
  | G_not_atom of Atom.t
  | G_key_free of Atom.t
  | G_lt of Term.t * Term.t
  | G_le of Term.t * Term.t

(* Decompose a conjunction into goals, or [None] when it contains [False].
   Formula order is preserved: ties in the branching heuristic fall back to
   goal order, so callers can put the most conflict-prone obligations first
   (the grounding path relies on this to keep failures shallow). *)
let goals_of_formula f =
  let rec push f rest =
    match f with
    | Formula.True -> rest
    | Formula.False -> raise_notrace Exit
    | Formula.Atom a -> G_atom a :: rest
    | Formula.Not_atom a -> G_not_atom a :: rest
    | Formula.Key_free a -> G_key_free a :: rest
    | Formula.Eq (t1, t2) -> G_eq (t1, t2) :: rest
    | Formula.Neq (t1, t2) -> G_neq (t1, t2) :: rest
    | Formula.Lt (t1, t2) -> G_lt (t1, t2) :: rest
    | Formula.Le (t1, t2) -> G_le (t1, t2) :: rest
    | Formula.And fs -> List.fold_right push fs rest
    | Formula.Or fs -> G_or fs :: rest
  in
  match push f [] with
  | goals -> Some goals
  | exception Exit -> None

(* Simplify a formula under the current bindings; cheap and local. *)
let simplify subst f = Formula.apply_subst subst f

(* Is every argument of the atom bound under [subst]? *)
let is_ground subst (a : Atom.t) =
  Array.for_all
    (fun t ->
      match Subst.resolve subst t with
      | Term.C _ -> true
      | Term.V _ -> false)
    a.Atom.args

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

(* -- Slots, watches and the trail ----------------------------------------- *)

type slot = {
  mutable goal : goal;  (* an OR is rewritten in place as it simplifies *)
  mutable live : bool;  (* false once decided or branched on *)
  mutable queued : bool;
  mutable est : int;  (* an atom's candidate estimate; -1 until computed *)
  (* Order-list neighbours; meaningful for atom and OR slots only. *)
  mutable prev : int;
  mutable next : int;
}

(* How to undo one destructive step. *)
type undo =
  | Revive of int  (* a killed slot lives again (relinked if an atom/OR) *)
  | Drop of int  (* the newest slot is freed (unlinked if an atom/OR) *)
  | Regoal of int * goal  (* an OR rewrite is reverted *)
  | Restimate of int * int  (* an atom's estimate, dropped when woken, is restored *)
  | Rewatch of int * int list  (* a variable's watch list is restored *)

module Vid_tbl = Hashtbl.Make (Int)

exception Conflict

type state = {
  db : Database.t;
  stats : stats;
  mutable subst : Subst.t;
  (* Slot 0 is the order list's sentinel: never live, never watched. *)
  mutable slots : slot array;
  mutable n_slots : int;
  watches : int list Vid_tbl.t;  (* variable id -> watching slots *)
  mutable trail : undo array;
  mutable trail_n : int;
  (* FIFO of woken slots; empty between propagations. *)
  mutable queue : int array;
  mutable q_head : int;
  mutable q_tail : int;
}

let new_slot goal = { goal; live = true; queued = false; est = -1; prev = 0; next = 0 }

let create db stats subst =
  let sentinel = { (new_slot (G_or [])) with live = false } in
  {
    db;
    stats;
    subst;
    slots = Array.make 32 sentinel;
    n_slots = 1;
    watches = Vid_tbl.create 32;
    trail = Array.make 64 (Drop 0);
    trail_n = 0;
    queue = Array.make 32 0;
    q_head = 0;
    q_tail = 0;
  }

let grow a n fill =
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let log st u =
  if st.trail_n = Array.length st.trail then st.trail <- grow st.trail st.trail_n u;
  st.trail.(st.trail_n) <- u;
  st.trail_n <- st.trail_n + 1

let on_order_list = function
  | G_atom _ | G_or _ -> true
  | G_eq _ | G_neq _ | G_not_atom _ | G_key_free _ | G_lt _ | G_le _ -> false

let unlink st s =
  let slot = st.slots.(s) in
  st.slots.(slot.prev).next <- slot.next;
  st.slots.(slot.next).prev <- slot.prev

let relink st s =
  let slot = st.slots.(s) in
  st.slots.(slot.prev).next <- s;
  st.slots.(slot.next).prev <- s

let kill st s =
  let slot = st.slots.(s) in
  slot.live <- false;
  if on_order_list slot.goal then unlink st s;
  log st (Revive s)

let watchers st (v : Term.var) =
  match Vid_tbl.find_opt st.watches v.Term.vid with
  | Some l -> l
  | None -> []

let set_watchers st (v : Term.var) old l =
  log st (Rewatch (v.Term.vid, old));
  Vid_tbl.replace st.watches v.Term.vid l

let enqueue st s =
  let slot = st.slots.(s) in
  if slot.live && not slot.queued then begin
    slot.queued <- true;
    if st.q_tail = Array.length st.queue then st.queue <- grow st.queue st.q_tail 0;
    st.queue.(st.q_tail) <- s;
    st.q_tail <- st.q_tail + 1
  end

let clear_queue st =
  for i = st.q_head to st.q_tail - 1 do
    st.slots.(st.queue.(i)).queued <- false
  done;
  st.q_head <- 0;
  st.q_tail <- 0

(* Bind [v] and wake its watchers.  Bound to another variable, [v] hands
   its live watchers on to it. *)
let bind st v t =
  st.subst <- Subst.bind v t st.subst;
  let ws = watchers st v in
  List.iter (enqueue st) ws;
  match t with
  | Term.C _ -> ()
  | Term.V w ->
    (match List.filter (fun s -> st.slots.(s).live) ws with
     | [] -> ()
     | moving ->
       let old = watchers st w in
       set_watchers st w old (List.rev_append moving old))

(* [Unify.unify_terms], binding through [bind]: the same representative
   choice, so the valuations the search produces are the same too. *)
let unify st t1 t2 =
  match Subst.resolve st.subst t1, Subst.resolve st.subst t2 with
  | Term.C a, Term.C b -> if not (Value.equal a b) then raise_notrace Conflict
  | Term.V v, (Term.C _ as c) | (Term.C _ as c), Term.V v -> bind st v c
  | Term.V v1, (Term.V v2 as w) -> if not (Term.equal_var v1 v2) then bind st v1 w

(* Unify an atom with one of its candidate tuples ([Unify.mgu] against the
   tuple's atom). *)
let bind_tuple st (a : Atom.t) tuple =
  if Array.length tuple <> Array.length a.Atom.args then raise_notrace Conflict;
  Array.iteri
    (fun i t ->
      match Subst.resolve st.subst t with
      | Term.C c -> if not (Value.equal c tuple.(i)) then raise_notrace Conflict
      | Term.V v -> bind st v (Term.C tuple.(i)))
    a.Atom.args

let rec iter_formula_vars k = function
  | Formula.True | Formula.False -> ()
  | Formula.Atom a | Formula.Not_atom a | Formula.Key_free a -> Array.iter (iter_term_var k) a.Atom.args
  | Formula.Eq (t1, t2) | Formula.Neq (t1, t2) | Formula.Lt (t1, t2) | Formula.Le (t1, t2) ->
    iter_term_var k t1;
    iter_term_var k t2
  | Formula.And fs | Formula.Or fs -> List.iter (iter_formula_vars k) fs

and iter_term_var k = function
  | Term.V v -> k v
  | Term.C _ -> ()

let iter_goal_vars k = function
  | G_atom a | G_not_atom a | G_key_free a -> Array.iter (iter_term_var k) a.Atom.args
  | G_eq (t1, t2) | G_neq (t1, t2) | G_lt (t1, t2) | G_le (t1, t2) ->
    iter_term_var k t1;
    iter_term_var k t2
  | G_or fs -> List.iter (iter_formula_vars k) fs

(* Put [goals] in fresh slots: atoms and ORs go on the order list right
   after slot [after], in goal order; every slot watches its variables and
   is queued for its first visit.  Goals come from formulas simplified
   under the current substitution, so their variables are unbound. *)
let add_goals st ~after goals =
  let cursor = ref after in
  List.iter
    (fun goal ->
      let s = st.n_slots in
      if s = Array.length st.slots then st.slots <- grow st.slots s st.slots.(0);
      let slot = new_slot goal in
      st.slots.(s) <- slot;
      st.n_slots <- s + 1;
      log st (Drop s);
      if on_order_list goal then begin
        let p = !cursor in
        slot.prev <- p;
        slot.next <- st.slots.(p).next;
        relink st s;
        cursor := s
      end;
      iter_goal_vars
        (fun v ->
          match watchers st v with
          | s' :: _ when s' = s -> ()
          | old -> set_watchers st v old (s :: old))
        goal;
      enqueue st s)
    goals

let undo st mark =
  while st.trail_n > mark do
    st.trail_n <- st.trail_n - 1;
    match st.trail.(st.trail_n) with
    | Revive s ->
      let slot = st.slots.(s) in
      slot.live <- true;
      if on_order_list slot.goal then relink st s
    | Drop s ->
      if on_order_list st.slots.(s).goal then unlink st s;
      st.n_slots <- s
    | Regoal (s, goal) -> st.slots.(s).goal <- goal
    | Restimate (s, est) -> st.slots.(s).est <- est
    | Rewatch (vid, l) -> Vid_tbl.replace st.watches vid l
  done

(* A comparison ([holds] is [Formula.neq], [lt] or [le]) is decided once
   both sides are constants or one variable: drop it once it holds, fail
   once it cannot. *)
let decide st s holds t1 t2 =
  match Subst.resolve st.subst t1, Subst.resolve st.subst t2 with
  | (Term.C _, Term.V _ | Term.V _, Term.C _) -> ()
  | Term.V v1, Term.V v2 when not (Term.equal_var v1 v2) -> ()
  | r1, r2 ->
    (match holds r1 r2 with
     | Formula.True -> kill st s
     | Formula.False -> raise_notrace Conflict
     | _ -> assert false)

(* Decide a goal over an atom that is now ground by the ground semantics,
   [Formula.eval], where a relation with no table is empty. *)
let check_ground st s f =
  if Formula.eval st.db (fun _ -> None) (simplify st.subst f) then kill st s
  else raise_notrace Conflict

(* Re-decide a woken slot.  @raise Conflict when it cannot hold. *)
let visit st s =
  let slot = st.slots.(s) in
  slot.queued <- false;
  if slot.live then
    match slot.goal with
    | G_atom a ->
      if is_ground st.subst a then begin
        st.stats.propagations <- st.stats.propagations + 1;
        check_ground st s (Formula.Atom a)
      end
      else if slot.est >= 0 then begin
        (* A binding changed the atom's pattern: re-estimate at the next
           choice point. *)
        log st (Restimate (s, slot.est));
        slot.est <- -1
      end
    | G_not_atom a -> if is_ground st.subst a then check_ground st s (Formula.Not_atom a)
    | G_key_free a -> if is_ground st.subst a then check_ground st s (Formula.Key_free a)
    | G_eq (t1, t2) ->
      kill st s;
      unify st t1 t2
    | G_neq (t1, t2) -> decide st s Formula.neq t1 t2
    | G_lt (t1, t2) -> decide st s Formula.lt t1 t2
    | G_le (t1, t2) -> decide st s Formula.le t1 t2
    | G_or fs ->
      (match Formula.or_ (List.map (simplify st.subst) fs) with
       | Formula.True -> kill st s
       | Formula.False -> raise_notrace Conflict
       | Formula.Eq (t1, t2) ->
         (* The disjunction collapsed to a single equality: unify now. *)
         kill st s;
         unify st t1 t2
       | Formula.Or fs' ->
         log st (Regoal (s, slot.goal));
         slot.goal <- G_or fs'
       | f ->
         (* Collapsed to one formula: its goals take the OR's place. *)
         (match goals_of_formula f with
          | None -> raise_notrace Conflict
          | Some goals ->
            kill st s;
            add_goals st ~after:slot.prev goals))

(* Visit woken slots until none is left; [false] on conflict. *)
let propagate st =
  match
    while st.q_head < st.q_tail do
      let s = st.queue.(st.q_head) in
      st.q_head <- st.q_head + 1;
      visit st s
    done
  with
  | () ->
    st.q_head <- 0;
    st.q_tail <- 0;
    true
  | exception Conflict ->
    clear_queue st;
    false

(* Candidate estimate for branching choice.  A slot keeps its atom's
   estimate until a binding wakes the atom; the tables do not change
   during a search. *)
let estimate st a =
  let a = Subst.apply_atom st.subst a in
  match Database.find_table st.db a.Atom.rel with
  | None -> 0
  | Some table -> Table.estimate_matches table (Atom.to_pattern a)

(* The slot to branch on: the positive atom or generator-OR node with the
   fewest alternatives, the first in goal order on ties; constraint-OR
   nodes only when nothing else is left.  [0] when no atom or OR is left. *)
let pick_branch st =
  let best = ref 0 and best_cost = ref max_int in
  let fallback = ref 0 and fallback_cost = ref max_int in
  let rec scan s =
    if s <> 0 then begin
      let slot = st.slots.(s) in
      match slot.goal with
      | G_atom a ->
        if slot.est < 0 then slot.est <- estimate st a;
        let cost = slot.est in
        if cost < !best_cost then begin
          best := s;
          best_cost := cost
        end;
        (* An empty candidate set cannot be beaten (OR goals always cost
           >= 1, so this is the global minimum): stop scanning. *)
        if cost > 0 then scan slot.next
      | G_or fs ->
        let cost = List.length fs in
        if List.exists formula_has_atom fs then begin
          if cost < !best_cost then begin
            best := s;
            best_cost := cost
          end
        end
        else if cost < !fallback_cost then begin
          fallback := s;
          fallback_cost := cost
        end;
        scan slot.next
      | G_eq _ | G_neq _ | G_not_atom _ | G_key_free _ | G_lt _ | G_le _ -> assert false
    end
  in
  scan st.slots.(0).next;
  if !best <> 0 then !best else !fallback

let default_node_limit = 2_000_000

(* The one search loop behind [solve] and [solutions].  Each node
   propagates what the last step woke, picks the most constrained goal and
   tries its alternatives in order: tuples in primary-key order for an
   atom, branches in list order for an OR node.  [leaf] sees every
   satisfying valuation and returns [true] to stop the whole search.  A
   choice point none of whose alternatives reached a leaf is one
   backtrack; a relation with no table is an empty candidate stream. *)
let search ?(node_limit = default_node_limit) ?deadline_ns db stats ~leaf subst goals =
  (* The budget is per call: [stats] may be a long-lived cumulative
     counter shared across the engine's lifetime. *)
  let base_nodes = stats.nodes in
  let node_ceiling = base_nodes + node_limit in
  let st = create db stats subst in
  add_goals st ~after:0 goals;
  let leaves = ref 0 in
  (* Each function returns [true] once [leaf] asked to stop. *)
  let rec expand () =
    if stats.nodes > node_ceiling then raise Too_many_nodes;
    (* Stride relative to this call's entry: [stats] is cumulative and
       need not be 256-aligned, and the very first check (offset 0) makes
       an already-expired deadline fire before any search happens. *)
    check_deadline deadline_ns (stats.nodes - base_nodes);
    propagate st
    &&
    let s = pick_branch st in
    if s = 0 then begin
      (* Only deferred Neq / Not_atom goals remain, all with at least one
         unbound, otherwise-unconstrained variable: vacuously satisfiable
         over an unbounded value universe. *)
      incr leaves;
      leaf st.subst
    end
    else begin
      stats.nodes <- stats.nodes + 1;
      let leaves0 = !leaves in
      let goal = st.slots.(s).goal in
      kill st s;
      match goal with
      | G_atom a ->
        let a = Subst.apply_atom st.subst a in
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
        try_tuples a candidates || dead_end leaves0 a.Atom.rel
      | G_or fs -> try_branches fs || dead_end leaves0 "or"
      | G_eq _ | G_neq _ | G_not_atom _ | G_key_free _ | G_lt _ | G_le _ -> assert false
    end
  and try_tuples a candidates =
    match candidates () with
    | Seq.Nil -> false
    | Seq.Cons (tuple, more) ->
      stats.candidates <- stats.candidates + 1;
      descend (fun () -> bind_tuple st a tuple) || try_tuples a more
  and try_branches = function
    | [] -> false
    | branch :: more ->
      stats.candidates <- stats.candidates + 1;
      (match goals_of_formula (simplify st.subst branch) with
       | Some goals -> descend (fun () -> add_goals st ~after:0 goals)
       | None -> false)
      || try_branches more
  (* Make one alternative's bindings or goals, search below it, and undo
     it all unless the search stopped. *)
  and descend step =
    let mark = st.trail_n and subst = st.subst in
    let stop =
      match step () with
      | () -> expand ()
      | exception Conflict ->
        clear_queue st;
        false
    in
    if not stop then begin
      undo st mark;
      st.subst <- subst
    end;
    stop
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
  ignore (expand ())

(* One span per call, reporting the search effort it added to the
   (possibly shared, cumulative) stats record. *)
let run span ?node_limit ?deadline_ns ?(seed = Subst.empty) ?stats ~found ~leaf db formula =
  let stats =
    match stats with
    | Some s -> s
    | None -> fresh_stats ()
  in
  let go () =
    match goals_of_formula (simplify seed formula) with
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
