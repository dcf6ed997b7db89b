(* Conflict-driven clause learning with incremental solving under
   assumptions — the engine's one SAT solver, the Section 6 "modern
   solver" proposal.

   Two watched literals per clause, 1UIP conflict analysis with basic
   clause minimization, VSIDS-style variable activity with decay and an
   order heap, saved phases, Luby restarts and activity-driven learned
   clause reduction.  The solver instance is persistent: variables and
   clauses are added between [solve] calls, each [solve] runs under a set
   of assumption literals (decided first, in order), and the instance
   returns to decision level 0 afterwards with every learned clause kept
   — which is what makes admission checks incremental: per-transaction
   CNF chunks are gated behind activation literals, and only the
   activation literals change from one admission to the next.

   Budgets mirror {!Solver.Backtrack}: a conflict limit (the node budget
   translated by the caller) raises {!Conflict_budget_exceeded}, a
   monotonic-clock deadline raises {!Timed_out}; both are checked on a
   stride so the hot propagation loop stays clock-free, plus once at
   entry so a pre-expired deadline never starts a search.  Either way the
   solver unwinds to level 0 first and stays usable. *)

exception Conflict_budget_exceeded
exception Timed_out

type result =
  | Sat
  | Unsat

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;  (* trail literals whose watch lists were processed *)
  restarts : int;
  learned : int;  (* learned clauses added over the solver's lifetime *)
  minimized : int;  (* literals dropped by clause minimization *)
}

(* Growable int vector — watch lists and the clause arena index space. *)
module Veci = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (if t.n = 0 then 4 else 2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end

type clause = {
  mutable lits : int array;  (* lits.(0) and lits.(1) are watched *)
  mutable act : float;
  learnt : bool;
  mutable dead : bool;
}

type t = {
  mutable nvars : int;
  (* Var-indexed state (1-based; slot 0 unused), grown by {!new_var}. *)
  mutable assign : int array;  (* 1 true, -1 false, 0 unassigned *)
  mutable level : int array;
  mutable reason : int array;  (* arena index, -1 for decisions/unassigned *)
  mutable activity : float array;
  mutable phase : bool array;  (* saved polarity; default false *)
  mutable seen : int array;
  mutable heap_pos : int array;  (* -1 when not in the order heap *)
  mutable heap : int array;
  mutable heap_n : int;
  mutable watches : Veci.t array;  (* indexed by literal, see {!lidx} *)
  mutable arena : clause array;
  mutable arena_n : int;
  mutable trail : int array;  (* assigned literals in order *)
  mutable trail_n : int;
  mutable trail_lim : int array;  (* trail_n at each decision level *)
  mutable trail_lim_n : int;
  mutable qhead : int;
  mutable ok : bool;  (* false once the clause set is unsat at level 0 *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable n_learnt : int;  (* live learned clauses *)
  mutable max_learnt : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned_total : int;
  mutable minimized : int;
  mutable model : int array;  (* last Sat assignment, var-indexed *)
}

let lidx l = if l > 0 then 2 * l else (2 * -l) + 1

let dummy_clause = { lits = [||]; act = 0.; learnt = false; dead = true }

let create () =
  {
    nvars = 0;
    assign = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.;
    phase = Array.make 16 false;
    seen = Array.make 16 0;
    heap_pos = Array.make 16 (-1);
    heap = Array.make 16 0;
    heap_n = 0;
    watches = Array.init 32 (fun _ -> Veci.create ());
    arena = Array.make 16 dummy_clause;
    arena_n = 0;
    trail = Array.make 16 0;
    trail_n = 0;
    trail_lim = Array.make 16 0;
    trail_lim_n = 0;
    qhead = 0;
    ok = true;
    var_inc = 1.;
    cla_inc = 1.;
    n_learnt = 0;
    max_learnt = 4000;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned_total = 0;
    minimized = 0;
    model = [||];
  }

let num_vars t = t.nvars

let stats t =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    learned = t.learned_total;
    minimized = t.minimized;
  }

let grow_var_arrays t =
  let cap = Array.length t.assign in
  let ncap = 2 * cap in
  let gi a d =
    let b = Array.make ncap d in
    Array.blit a 0 b 0 cap;
    b
  in
  t.assign <- gi t.assign 0;
  t.level <- gi t.level 0;
  t.reason <- gi t.reason (-1);
  t.seen <- gi t.seen 0;
  t.heap_pos <- gi t.heap_pos (-1);
  t.heap <- gi t.heap 0;
  t.trail <- gi t.trail 0;
  let bf = Array.make ncap 0. in
  Array.blit t.activity 0 bf 0 cap;
  t.activity <- bf;
  let bb = Array.make ncap false in
  Array.blit t.phase 0 bb 0 cap;
  t.phase <- bb;
  let w = Array.init (2 * ncap) (fun _ -> Veci.create ()) in
  Array.blit t.watches 0 w 0 (Array.length t.watches);
  t.watches <- w

(* Order heap: max-heap on variable activity. *)
let heap_lt t a b = t.activity.(a) > t.activity.(b)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(a) <- j;
  t.heap_pos.(b) <- i

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt t t.heap.(i) t.heap.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_n && heap_lt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_n && heap_lt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_n) <- v;
    t.heap_pos.(v) <- t.heap_n;
    t.heap_n <- t.heap_n + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_n <- t.heap_n - 1;
  if t.heap_n > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_n);
    t.heap_pos.(t.heap.(0)) <- 0
  end;
  t.heap_pos.(v) <- -1;
  if t.heap_n > 0 then heap_down t 0;
  v

let new_var t =
  let v = t.nvars + 1 in
  if v >= Array.length t.assign then grow_var_arrays t;
  t.nvars <- v;
  t.assign.(v) <- 0;
  t.level.(v) <- 0;
  t.reason.(v) <- -1;
  t.activity.(v) <- 0.;
  t.phase.(v) <- false;
  t.seen.(v) <- 0;
  t.heap_pos.(v) <- -1;
  heap_insert t v;
  v

let lit_value t l =
  let a = t.assign.(abs l) in
  if l > 0 then a else -a

let decision_level t = t.trail_lim_n

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 1 to t.nvars do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let bump_clause t c =
  c.act <- c.act +. t.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to t.arena_n - 1 do
      let d = t.arena.(i) in
      if d.learnt then d.act <- d.act *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay t =
  t.var_inc <- t.var_inc /. 0.95;
  t.cla_inc <- t.cla_inc /. 0.999

let push_trail t l =
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

let enqueue t l reason =
  let v = abs l in
  t.assign.(v) <- (if l > 0 then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  push_trail t l

let new_decision_level t =
  if t.trail_lim_n = Array.length t.trail_lim then begin
    let b = Array.make (2 * t.trail_lim_n) 0 in
    Array.blit t.trail_lim 0 b 0 t.trail_lim_n;
    t.trail_lim <- b
  end;
  t.trail_lim.(t.trail_lim_n) <- t.trail_n;
  t.trail_lim_n <- t.trail_lim_n + 1

(* Unwind the trail to decision level [lvl], saving phases and returning
   variables to the order heap. *)
let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_n - 1 downto bound do
      let l = t.trail.(i) in
      let v = abs l in
      t.phase.(v) <- t.assign.(v) > 0;
      t.assign.(v) <- 0;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_n <- bound;
    t.qhead <- bound;
    t.trail_lim_n <- lvl
  end

let alloc_clause t lits ~learnt =
  if t.arena_n = Array.length t.arena then begin
    let b = Array.make (2 * t.arena_n) dummy_clause in
    Array.blit t.arena 0 b 0 t.arena_n;
    t.arena <- b
  end;
  let ci = t.arena_n in
  t.arena.(ci) <- { lits; act = 0.; learnt; dead = false };
  t.arena_n <- t.arena_n + 1;
  if Array.length lits >= 2 then begin
    Veci.push t.watches.(lidx lits.(0)) ci;
    Veci.push t.watches.(lidx lits.(1)) ci
  end;
  ci

(* Propagate every queued assignment.  Returns the arena index of a
   conflicting clause, or -1. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_n do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let f = -p in
    (* Every clause watching the now-false literal [f]. *)
    let w = t.watches.(lidx f) in
    let i = ref 0 and j = ref 0 in
    while !i < w.Veci.n do
      let ci = w.Veci.a.(!i) in
      incr i;
      let c = t.arena.(ci) in
      if not c.dead then begin
        let lits = c.lits in
        if lits.(0) = f then begin
          lits.(0) <- lits.(1);
          lits.(1) <- f
        end;
        let first = lits.(0) in
        if lit_value t first = 1 then begin
          w.Veci.a.(!j) <- ci;
          incr j
        end
        else begin
          (* Look for a replacement watch. *)
          let n = Array.length lits in
          let k = ref 2 in
          while !k < n && lit_value t lits.(!k) = -1 do
            incr k
          done;
          if !k < n then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- f;
            Veci.push t.watches.(lidx lits.(1)) ci
          end
          else begin
            w.Veci.a.(!j) <- ci;
            incr j;
            if lit_value t first = -1 then begin
              (* Conflict: keep the remaining watches and stop. *)
              while !i < w.Veci.n do
                w.Veci.a.(!j) <- w.Veci.a.(!i);
                incr j;
                incr i
              done;
              t.qhead <- t.trail_n;
              conflict := ci
            end
            else enqueue t first ci
          end
        end
      end
    done;
    w.Veci.n <- !j
  done;
  !conflict

(* A literal of the pending learned clause is redundant when its reason's
   other literals are all already in the clause (still marked seen) or
   fixed at level 0 — the basic (non-recursive) minimization. *)
let lit_redundant t q =
  let r = t.reason.(abs q) in
  r >= 0
  &&
  let lits = t.arena.(r).lits in
  let n = Array.length lits in
  let rec go i =
    i >= n
    ||
    let v = abs lits.(i) in
    (t.seen.(v) = 1 || t.level.(v) = 0) && go (i + 1)
  in
  go 1

(* 1UIP conflict analysis.  Returns the learned clause (asserting literal
   first, a second-highest-level literal second) and the backtrack level. *)
let analyze t confl_ci =
  let out = ref [] in
  let pathc = ref 0 in
  let p = ref 0 in
  let confl = ref confl_ci in
  let index = ref (t.trail_n - 1) in
  let continue = ref true in
  while !continue do
    let c = t.arena.(!confl) in
    if c.learnt then bump_clause t c;
    let start = if !p = 0 then 0 else 1 in
    for k = start to Array.length c.lits - 1 do
      let q = c.lits.(k) in
      let v = abs q in
      if t.seen.(v) = 0 && t.level.(v) > 0 then begin
        t.seen.(v) <- 1;
        bump_var t v;
        if t.level.(v) >= decision_level t then incr pathc
        else out := q :: !out
      end
    done;
    while t.seen.(abs t.trail.(!index)) = 0 do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    t.seen.(abs !p) <- 0;
    decr pathc;
    if !pathc > 0 then confl := t.reason.(abs !p) else continue := false
  done;
  let kept =
    List.filter
      (fun q ->
        if lit_redundant t q then begin
          t.minimized <- t.minimized + 1;
          false
        end
        else true)
      !out
  in
  List.iter (fun q -> t.seen.(abs q) <- 0) !out;
  let btlevel = List.fold_left (fun m q -> max m (t.level.(abs q))) 0 kept in
  (* Asserting literal first; a literal from the backtrack level second so
     both watches are sound after the jump. *)
  let lits = Array.of_list (- !p :: kept) in
  let n = Array.length lits in
  if n > 2 then begin
    let k = ref 1 in
    for i = 2 to n - 1 do
      if t.level.(abs lits.(i)) > t.level.(abs lits.(!k)) then k := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!k);
    lits.(!k) <- tmp
  end;
  (lits, btlevel)

(* Halve the learned-clause database: lowest-activity first, keeping
   binaries and clauses currently locked as reasons. *)
let reduce_db t =
  let cands = ref [] in
  for ci = 0 to t.arena_n - 1 do
    let c = t.arena.(ci) in
    if c.learnt && (not c.dead) && Array.length c.lits > 2 then
      if not (t.reason.(abs c.lits.(0)) = ci && lit_value t c.lits.(0) = 1) then
        cands := (c.act, c) :: !cands
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !cands in
  let drop = List.length sorted / 2 in
  List.iteri (fun i (_, c) -> if i < drop then c.dead <- true) sorted;
  t.n_learnt <- t.n_learnt - min drop (List.length sorted)

let add_clause t lits =
  if decision_level t <> 0 then invalid_arg "Cdcl.add_clause: not at level 0";
  Array.iter
    (fun l ->
      if l = 0 || abs l > t.nvars then invalid_arg "Cdcl.add_clause: bad literal")
    lits;
  if t.ok then begin
    (* Sort/dedup, drop tautologies and level-0-false literals, skip
       clauses already true at level 0. *)
    let ls = List.sort_uniq compare (Array.to_list lits) in
    let taut = List.exists (fun l -> List.mem (-l) ls) ls in
    let sat0 = List.exists (fun l -> lit_value t l = 1) ls in
    if not (taut || sat0) then begin
      let ls = List.filter (fun l -> lit_value t l <> -1) ls in
      match ls with
      | [] -> t.ok <- false
      | [ l ] ->
        enqueue t l (-1);
        if propagate t >= 0 then t.ok <- false
      | _ ->
        let _ci = alloc_clause t (Array.of_list ls) ~learnt:false in
        ()
    end
  end

let luby x =
  (* Finite subsequence index -> Luby value (1, 1, 2, 1, 1, 2, 4, ...). *)
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let restart_base = 100

(* Search until Sat / Unsat / restart budget spent.  [bound] is this
   run's conflict allowance; [limit] the solve-wide conflict budget
   (already-spent count passed in [spent]). *)
type search_outcome =
  | S_sat
  | S_unsat
  | S_restart

let check_deadline deadline_ns =
  match deadline_ns with
  | None -> ()
  | Some d -> if Obs.Mclock.now_ns () >= d then raise Timed_out

let search t ~assumptions ~bound ~conflict_limit ~deadline_ns ~spent =
  let local = ref 0 in
  let result = ref None in
  while !result = None do
    let confl = propagate t in
    if confl >= 0 then begin
      t.conflicts <- t.conflicts + 1;
      incr local;
      (match conflict_limit with
       | Some lim when spent + !local > lim ->
         cancel_until t 0;
         raise Conflict_budget_exceeded
       | _ -> ());
      if (spent + !local) land 255 = 0 then begin
        try check_deadline deadline_ns
        with Timed_out ->
          cancel_until t 0;
          raise Timed_out
      end;
      if decision_level t = 0 then begin
        t.ok <- false;
        result := Some S_unsat
      end
      else begin
        let lits, btlevel = analyze t confl in
        cancel_until t btlevel;
        if Array.length lits = 1 then enqueue t lits.(0) (-1)
        else begin
          let ci = alloc_clause t lits ~learnt:true in
          bump_clause t t.arena.(ci);
          t.n_learnt <- t.n_learnt + 1;
          t.learned_total <- t.learned_total + 1;
          enqueue t lits.(0) ci
        end;
        decay t
      end
    end
    else if !local >= bound then begin
      (* Restart: back to level 0; assumptions are re-decided next run. *)
      cancel_until t 0;
      t.restarts <- t.restarts + 1;
      result := Some S_restart
    end
    else if t.n_learnt > t.max_learnt then begin
      reduce_db t;
      t.max_learnt <- t.max_learnt + (t.max_learnt / 2)
    end
    else begin
      (* Decide: assumptions first (one per level, in order), then the
         highest-activity unassigned variable at its saved phase. *)
      let rec skip_assumed k = function
        | [] -> `Free
        | a :: rest ->
          if k > 0 then skip_assumed (k - 1) rest
          else (
            match lit_value t a with
            | 1 ->
              new_decision_level t;
              `Decided
            | -1 -> `Conflict
            | _ ->
              new_decision_level t;
              enqueue t a (-1);
              `Decided)
      in
      let step =
        if decision_level t < List.length assumptions then
          skip_assumed (decision_level t) assumptions
        else `Free
      in
      match step with
      | `Conflict ->
        (* An assumption is false under the others: unsat under
           assumptions, but the clause set itself stays consistent. *)
        cancel_until t 0;
        result := Some S_unsat
      | `Decided -> ()
      | `Free -> (
        let v = ref 0 in
        while !v = 0 && t.heap_n > 0 do
          let u = heap_pop t in
          if t.assign.(u) = 0 then v := u
        done;
        if !v = 0 then result := Some S_sat
        else begin
          t.decisions <- t.decisions + 1;
          if t.decisions land 1023 = 0 then begin
            try check_deadline deadline_ns
            with Timed_out ->
              cancel_until t 0;
              raise Timed_out
          end;
          new_decision_level t;
          enqueue t (if t.phase.(!v) then !v else - !v) (-1)
        end)
    end
  done;
  (Option.get !result, !local)

let solve ?conflict_limit ?deadline_ns ?(assumptions = []) t =
  check_deadline deadline_ns;
  if not t.ok then Unsat
  else begin
    List.iter
      (fun a ->
        if a = 0 || abs a > t.nvars then invalid_arg "Cdcl.solve: bad assumption")
      assumptions;
    let spent = ref 0 in
    let answer = ref None in
    let round = ref 0 in
    (try
       while !answer = None do
         let bound = restart_base * luby !round in
         incr round;
         let outcome, used =
           search t ~assumptions ~bound ~conflict_limit ~deadline_ns ~spent:!spent
         in
         spent := !spent + used;
         match outcome with
         | S_sat ->
           (* Capture the model before unwinding. *)
           if Array.length t.model <= t.nvars then
             t.model <- Array.make (Array.length t.assign) 0;
           Array.blit t.assign 0 t.model 0 (t.nvars + 1);
           cancel_until t 0;
           answer := Some Sat
         | S_unsat ->
           cancel_until t 0;
           answer := Some Unsat
         | S_restart -> ()
       done
     with e ->
       cancel_until t 0;
       raise e);
    Option.get !answer
  end

let value t v =
  v >= 1 && v < Array.length t.model && t.model.(v) = 1

let num_clauses t =
  let n = ref 0 in
  for i = 0 to t.arena_n - 1 do
    if not t.arena.(i).dead then incr n
  done;
  !n
