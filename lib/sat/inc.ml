(* Incremental CNF session: composed-body satisfiability (the paper's
   Section 6 "SMT solver" direction, propositional fragment) encoded as a
   persistent delta against a live {!Cdcl} instance.

   Shape of the encoding:
   - Tseitin selectors mirror the and/or structure; a chunk's root is
     asserted under its activation literal.
   - A selected positive atom must choose exactly one candidate tuple from
     its table (candidates come from the atom's constant pattern).
   - Choosing a tuple implies value literals e[v=c] for the atom's
     variable positions; at-most-one over a variable's value literals
     enforces functional consistency across atoms sharing the variable.
   - (Dis)equality leaves become conditional conflicts over value
     literals; a variable with no selected binding atom is unconstrained,
     matching the vacuous-satisfiability semantics of the search solver.

   One session serves every admission check of an engine.  Each
   per-transaction chunk of a composed body (the same chunks
   [Compose.Inc] keeps) is encoded once, gated behind a fresh activation
   literal — only the chunk's root assertion is conditional
   ([¬act ∨ root]); every other clause the encoder emits (selector →
   choices, at-most-one, choice → value, value exclusions, equality
   theory) is vacuously satisfiable with its selectors false, so it is
   added unconditionally and shared.  A check then solves under the
   activation literals of exactly the live chunks: a rejected admission
   leaves its chunk's clauses behind as inert garbage, the next check
   simply assumes a different activation set, and everything the solver
   learned — including across partitions, which share nothing but the
   store — stays.

   Two things can invalidate an encoded chunk:
   - staleness: candidate tuples are looked up at encode time, so a chunk
     is keyed to the versions of the tables it read (groundings, blind
     writes and — for dependence atoms — pending-table inserts bump
     them); a stale chunk is re-encoded fresh under a new activation
     literal, and the old gating literal is simply never assumed again;
   - the clause budget: when accumulated garbage exceeds
     [max_clauses] the whole session is rebuilt from the live chunks
     (learned clauses are the only loss — correctness never depends on
     them).

   The equality theory (var-var equality links closed under union-find,
   so transitive chains propagate even through variables no atom binds)
   is repaired rather than rebuilt: (dis)equality links accumulate
   across chunks, the union-find closure over *equality* links is
   recomputed per push, and only theory clauses not yet emitted are
   added — sound because every theory clause is a monotone conditional
   addition.  Pairs linked only
   by disequalities (the pairwise distinctness web across a partition's
   resource variables) stay out of the classes: nothing can force their
   equality bit true except concrete values, so they get one
   same-value → bit clause per shared domain value and no transitivity,
   which keeps a k-variable clique at O(k² · |dom|) clauses instead of
   blowing the class-size cap. *)

module Value = Relational.Value
module Table = Relational.Table
module Database = Relational.Database
open Logic

type verdict =
  | V_sat of Subst.t
      (* decoded model over every value literal in the session; the
         caller restricts to the variables it cares about *)
  | V_unsat
  | V_unsupported of string  (* not (re-)encodable: fall back *)

type chunk_entry = {
  act : int;
  deps : (string * int) list;  (* table versions read at encode time *)
  link_vids : int list;  (* vars this chunk put into equality links *)
  clauses : int;  (* clauses this chunk's encode added (incl. AMO) *)
}

(* Encoding budget.  An atom with more candidate tuples, or a chunk with
   more clauses, is not encoded: the check answers [V_unsupported] and
   the engine falls back to search.  [max_clauses] also bounds the
   session's garbage before a rebuild (see [check]). *)
let max_candidates_per_atom = 4000
let max_clauses = 400_000

type t = {
  mutable solver : Cdcl.t;
  value_lits : (int * Value.t, int) Hashtbl.t;
  var_values : (int, Value.t list ref) Hashtbl.t;
  eq_bits : (int * int, int) Hashtbl.t;
  (* per variable id: the tail of its at-most-one ladder (see
     [value_lit]) *)
  amo_tail : (int, int) Hashtbl.t;
  chunks : (Formula.t, chunk_entry) Hashtbl.t;
  failed : (Formula.t, string) Hashtbl.t;
  (* (lo vid, hi vid) -> the pair and whether any chunk links it by
     equality (only those merge union-find classes) *)
  links : (int * int, Term.var * Term.var * bool ref) Hashtbl.t;
  bridged : (int * int * Value.t, unit) Hashtbl.t;
  trans : (int * int * int, unit) Hashtbl.t;
  (* per cross-class pair: domain sizes already swept for same-value
     clauses, so a repair only walks values minted since the last one *)
  pair_done : (int * int, int * int) Hashtbl.t;
  (* members of equality classes too large to encode eagerly — checks
     whose chunks touch one of these fall back instead of solving with an
     incomplete theory *)
  oversized : (int, unit) Hashtbl.t;
  mutable added_clauses : int;
  mutable theory_clauses : int;  (* live subset of [added_clauses] from repairs *)
  mutable resets : int;
  mutable retired : Cdcl.stats;  (* stats folded in from replaced solvers *)
}

exception Chunk_failed of string

let create () =
  {
    solver = Cdcl.create ();
    value_lits = Hashtbl.create 256;
    var_values = Hashtbl.create 64;
    amo_tail = Hashtbl.create 64;
    eq_bits = Hashtbl.create 64;
    chunks = Hashtbl.create 64;
    failed = Hashtbl.create 16;
    links = Hashtbl.create 64;
    bridged = Hashtbl.create 256;
    trans = Hashtbl.create 64;
    pair_done = Hashtbl.create 64;
    oversized = Hashtbl.create 16;
    added_clauses = 0;
    theory_clauses = 0;
    resets = 0;
    retired =
      {
        Cdcl.conflicts = 0;
        decisions = 0;
        propagations = 0;
        restarts = 0;
        learned = 0;
        minimized = 0;
      };
  }

let resets t = t.resets

let stats t =
  let s = Cdcl.stats t.solver and r = t.retired in
  {
    Cdcl.conflicts = s.Cdcl.conflicts + r.Cdcl.conflicts;
    decisions = s.Cdcl.decisions + r.Cdcl.decisions;
    propagations = s.Cdcl.propagations + r.Cdcl.propagations;
    restarts = s.Cdcl.restarts + r.Cdcl.restarts;
    learned = s.Cdcl.learned + r.Cdcl.learned;
    minimized = s.Cdcl.minimized + r.Cdcl.minimized;
  }

let live_clauses t = t.added_clauses

let reset t =
  t.retired <- stats t;
  t.solver <- Cdcl.create ();
  Hashtbl.reset t.value_lits;
  Hashtbl.reset t.var_values;
  Hashtbl.reset t.amo_tail;
  Hashtbl.reset t.eq_bits;
  Hashtbl.reset t.chunks;
  Hashtbl.reset t.failed;
  Hashtbl.reset t.links;
  Hashtbl.reset t.bridged;
  Hashtbl.reset t.trans;
  Hashtbl.reset t.pair_done;
  Hashtbl.reset t.oversized;
  t.added_clauses <- 0;
  t.theory_clauses <- 0;
  t.resets <- t.resets + 1

let add_clause t lits =
  Cdcl.add_clause t.solver lits;
  t.added_clauses <- t.added_clauses + 1

let value_lit t (v : Term.var) value =
  let key = (v.Term.vid, value) in
  match Hashtbl.find_opt t.value_lits key with
  | Some l -> l
  | None ->
    let l = Cdcl.new_var t.solver in
    Hashtbl.add t.value_lits key l;
    let known =
      match Hashtbl.find_opt t.var_values v.Term.vid with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add t.var_values v.Term.vid r;
        r
    in
    (* A variable takes at most one value — an incrementally grown
       sequential ladder: [s_i] means "one of the first i values is
       chosen", so each new value costs 3 clauses however many values the
       variable has accumulated across chunks (pairwise exclusion would
       cost one clause per prior value, quadratic over a partition's
       shared domain). *)
    let s = Cdcl.new_var t.solver in
    add_clause t [| -l; s |];
    (match Hashtbl.find_opt t.amo_tail v.Term.vid with
     | None -> ()
     | Some s_prev ->
       add_clause t [| -s_prev; s |];
       add_clause t [| -l; -s_prev |]);
    Hashtbl.replace t.amo_tail v.Term.vid s;
    known := value :: !known;
    l

let values_of_var t (v : Term.var) =
  match Hashtbl.find_opt t.var_values v.Term.vid with
  | Some r -> !r
  | None -> []

let eq_bit t (v1 : Term.var) (v2 : Term.var) =
  let key = (min v1.Term.vid v2.Term.vid, max v1.Term.vid v2.Term.vid) in
  match Hashtbl.find_opt t.eq_bits key with
  | Some l -> l
  | None ->
    let l = Cdcl.new_var t.solver in
    Hashtbl.add t.eq_bits key l;
    l

(* --- per-chunk encoding --- *)

type chunk_ctx = {
  mutable deps : (string * int) list;
  mutable chunk_clauses : int;
  mutable atom_selectors : (Formula.t * int) list;
  mutable link_vids : int list;
}

let chunk_clause t ctx lits =
  ctx.chunk_clauses <- ctx.chunk_clauses + 1;
  if ctx.chunk_clauses > max_clauses then
    raise (Chunk_failed "sat chunk exceeds clause budget");
  add_clause t lits

let record_dep ctx db rel =
  let version =
    match Database.find_table db rel with
    | Some table -> Table.version table
    | None -> -1
  in
  if not (List.mem (rel, version) ctx.deps) then ctx.deps <- (rel, version) :: ctx.deps

let encode_atom t ctx db (a : Atom.t) =
  let selector = Cdcl.new_var t.solver in
  record_dep ctx db a.Atom.rel;
  (match Database.find_table db a.Atom.rel with
   | None -> chunk_clause t ctx [| -selector |]
   | Some table ->
     let candidates = Table.lookup table (Atom.to_pattern a) in
     if List.length candidates > max_candidates_per_atom then
       raise (Chunk_failed "sat atom candidate budget exceeded");
     let choice_lits =
       List.map
         (fun tuple ->
           let b = Cdcl.new_var t.solver in
           Array.iteri
             (fun i term ->
               match term with
               | Term.V v -> chunk_clause t ctx [| -b; value_lit t v tuple.(i) |]
               | Term.C _ -> ())
             a.Atom.args;
           b)
         candidates
     in
     (match choice_lits with
      | [] -> chunk_clause t ctx [| -selector |]
      | _ ->
        chunk_clause t ctx (Array.of_list (-selector :: choice_lits));
        (* at-most-one over the choices: sequential ladder, 3 clauses per
           choice instead of a quadratic pairwise web *)
        let prev = ref 0 in
        List.iter
          (fun b ->
            let s = Cdcl.new_var t.solver in
            chunk_clause t ctx [| -b; s |];
            if !prev <> 0 then begin
              chunk_clause t ctx [| - !prev; s |];
              chunk_clause t ctx [| -b; - !prev |]
            end;
            prev := s)
          choice_lits));
  selector

let encode_eq t ctx (t1 : Term.t) (t2 : Term.t) =
  let selector = Cdcl.new_var t.solver in
  (match t1, t2 with
   | Term.C a, Term.C b ->
     if not (Value.equal a b) then chunk_clause t ctx [| -selector |]
   | Term.V v, Term.C c | Term.C c, Term.V v ->
     chunk_clause t ctx [| -selector; value_lit t v c |];
     List.iter
       (fun value ->
         if not (Value.equal value c) then
           chunk_clause t ctx [| -selector; -value_lit t v value |])
       (values_of_var t v)
   | Term.V v1, Term.V v2 ->
     if not (Term.equal_var v1 v2) then
       chunk_clause t ctx [| -selector; eq_bit t v1 v2 |]);
  selector

let encode_neq t ctx (t1 : Term.t) (t2 : Term.t) =
  let selector = Cdcl.new_var t.solver in
  (match t1, t2 with
   | Term.C a, Term.C b -> if Value.equal a b then chunk_clause t ctx [| -selector |]
   | Term.V v, Term.C c | Term.C c, Term.V v ->
     chunk_clause t ctx [| -selector; -value_lit t v c |]
   | Term.V v1, Term.V v2 ->
     if Term.equal_var v1 v2 then chunk_clause t ctx [| -selector |]
     else chunk_clause t ctx [| -selector; -eq_bit t v1 v2 |]);
  selector

let rec mint_atoms t ctx db f =
  match f with
  | Formula.Atom a -> ctx.atom_selectors <- (f, encode_atom t ctx db a) :: ctx.atom_selectors
  | Formula.And fs | Formula.Or fs -> List.iter (mint_atoms t ctx db) fs
  | Formula.Not_atom _ | Formula.Key_free _ ->
    raise (Chunk_failed "negative atoms are not SAT-encodable here")
  | Formula.Lt _ | Formula.Le _ ->
    raise (Chunk_failed "order constraints are not SAT-encodable here")
  | Formula.True | Formula.False | Formula.Eq _ | Formula.Neq _ -> ()

(* Collect the chunk's var-const value mints and var-var links into the
   session-wide link set. *)
let record_link t ctx (v1 : Term.var) (v2 : Term.var) ~eq =
  let key = (min v1.Term.vid v2.Term.vid, max v1.Term.vid v2.Term.vid) in
  (match Hashtbl.find_opt t.links key with
   | Some (_, _, has_eq) -> if eq then has_eq := true
   | None -> Hashtbl.add t.links key (v1, v2, ref eq));
  ctx.link_vids <- v1.Term.vid :: v2.Term.vid :: ctx.link_vids

let rec collect_links t ctx f =
  match f with
  | Formula.True | Formula.False | Formula.Atom _ | Formula.Not_atom _
  | Formula.Key_free _ -> ()
  | Formula.Eq (Term.V v, Term.C c)
  | Formula.Eq (Term.C c, Term.V v)
  | Formula.Neq (Term.V v, Term.C c)
  | Formula.Neq (Term.C c, Term.V v) ->
    ignore ctx;
    ignore (value_lit t v c)
  | Formula.Eq (Term.V v1, Term.V v2) ->
    if not (Term.equal_var v1 v2) then record_link t ctx v1 v2 ~eq:true
  | Formula.Neq (Term.V v1, Term.V v2) ->
    if not (Term.equal_var v1 v2) then record_link t ctx v1 v2 ~eq:false
  | Formula.Eq _ | Formula.Neq _ | Formula.Lt _ | Formula.Le _ -> ()
  | Formula.And fs | Formula.Or fs -> List.iter (collect_links t ctx) fs

let rec encode_node t ctx f =
  match f with
  | Formula.True -> Cdcl.new_var t.solver
  | Formula.False ->
    let l = Cdcl.new_var t.solver in
    chunk_clause t ctx [| -l |];
    l
  | Formula.Atom _ ->
    let rec find = function
      | [] -> assert false
      | (g, l) :: rest -> if g == f then l else find rest
    in
    find ctx.atom_selectors
  | Formula.Not_atom _ | Formula.Key_free _ ->
    raise (Chunk_failed "negative atoms are not SAT-encodable here")
  | Formula.Lt _ | Formula.Le _ ->
    raise (Chunk_failed "order constraints are not SAT-encodable here")
  | Formula.Eq (a, b) -> encode_eq t ctx a b
  | Formula.Neq (a, b) -> encode_neq t ctx a b
  | Formula.And fs ->
    let selector = Cdcl.new_var t.solver in
    List.iter
      (fun f ->
        let l = encode_node t ctx f in
        chunk_clause t ctx [| -selector; l |])
      fs;
    selector
  | Formula.Or fs ->
    let selector = Cdcl.new_var t.solver in
    let lits = List.map (encode_node t ctx) fs in
    chunk_clause t ctx (Array.of_list (-selector :: lits));
    selector

(* Recompute the union-find closure over the *equality* links seen so far
   and emit whatever theory clauses are still missing.  Equality classes
   get the full treatment (domain equalization, pairwise value bridging,
   transitivity) under the class-size cap — unification keeps them tiny.
   Pairs linked only by disequalities stay outside the classes: nothing
   can force their equality bit true except concrete values, so they get
   one same-value → bit clause per shared domain value, no propagation
   directions, no transitivity and no cap — a k-variable distinctness
   clique costs O(k² · |dom|) clauses instead of blowing the cap. *)
let repair_equality_theory t =
  let before = t.added_clauses in
  let parent = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | Some p when p <> v ->
      let root = find p in
      Hashtbl.replace parent v root;
      root
    | _ -> v
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  Hashtbl.iter
    (fun _ ((v1 : Term.var), (v2 : Term.var), has_eq) ->
      if !has_eq then union v1.Term.vid v2.Term.vid)
    t.links;
  let vars_of_class = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ ((v1 : Term.var), (v2 : Term.var), has_eq) ->
      if !has_eq then
        List.iter
          (fun (v : Term.var) ->
            let root = find v.Term.vid in
            let members = Option.value ~default:[] (Hashtbl.find_opt vars_of_class root) in
            if not (List.exists (fun (m : Term.var) -> m.Term.vid = v.Term.vid) members)
            then Hashtbl.replace vars_of_class root (v :: members))
          [ v1; v2 ])
    t.links;
  Hashtbl.iter
    (fun _root members ->
      try
      let all_values =
        List.sort_uniq Value.compare (List.concat_map (values_of_var t) members)
      in
      List.iter
        (fun v -> List.iter (fun value -> ignore (value_lit t v value)) all_values)
        members;
      let members = Array.of_list members in
      let n = Array.length members in
      if n > 16 then begin
        (* Too big to bridge eagerly: poison the class's variables so any
           check whose chunks touch them falls back, and emit nothing
           (never solve against a half-built theory). *)
        Array.iter (fun (v : Term.var) -> Hashtbl.replace t.oversized v.Term.vid ()) members;
        raise Exit
      end;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let v1 = members.(i) and v2 = members.(j) in
          let lo = min v1.Term.vid v2.Term.vid and hi = max v1.Term.vid v2.Term.vid in
          let eq = eq_bit t v1 v2 in
          List.iter
            (fun a ->
              if not (Hashtbl.mem t.bridged (lo, hi, a)) then begin
                Hashtbl.add t.bridged (lo, hi, a) ();
                let l1 = value_lit t v1 a and l2 = value_lit t v2 a in
                add_clause t [| -eq; -l1; l2 |];
                add_clause t [| -eq; -l2; l1 |];
                add_clause t [| -l1; -l2; eq |]
              end)
            all_values
        done
      done;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          for k = j + 1 to n - 1 do
            let ids =
              List.sort compare
                [ members.(i).Term.vid; members.(j).Term.vid; members.(k).Term.vid ]
            in
            let key =
              match ids with [ a; b; c ] -> (a, b, c) | _ -> assert false
            in
            if not (Hashtbl.mem t.trans key) then begin
              Hashtbl.add t.trans key ();
              let ij = eq_bit t members.(i) members.(j)
              and jk = eq_bit t members.(j) members.(k)
              and ik = eq_bit t members.(i) members.(k) in
              add_clause t [| -ij; -jk; ik |];
              add_clause t [| -ij; -ik; jk |];
              add_clause t [| -jk; -ik; ij |]
            end
          done
        done
      done
      with Exit -> ())
    vars_of_class;
  (* Cross-class pairs: sweep only the domain values minted since this
     pair's last repair (fresh values sit at the head of each domain
     list), emitting the same-value → bit clause when the value exists on
     both sides.  A value already swept from one side is re-considered
     when it later appears on the other, so coverage stays exact as
     domains grow chunk by chunk. *)
  Hashtbl.iter
    (fun key ((v1 : Term.var), (v2 : Term.var), _) ->
      if find v1.Term.vid <> find v2.Term.vid then begin
        let d1 = values_of_var t v1 and d2 = values_of_var t v2 in
        let n1 = List.length d1 and n2 = List.length d2 in
        let p1, p2 = Option.value ~default:(0, 0) (Hashtbl.find_opt t.pair_done key) in
        if n1 > p1 || n2 > p2 then begin
          let eq = eq_bit t v1 v2 in
          let emit a = add_clause t [| -value_lit t v1 a; -value_lit t v2 a; eq |] in
          let fresh1 = Hashtbl.create 8 in
          List.iteri
            (fun i a ->
              if i < n1 - p1 then begin
                Hashtbl.replace fresh1 a ();
                if Hashtbl.mem t.value_lits (v2.Term.vid, a) then emit a
              end)
            d1;
          List.iteri
            (fun i a ->
              if
                i < n2 - p2
                && (not (Hashtbl.mem fresh1 a))
                && Hashtbl.mem t.value_lits (v1.Term.vid, a)
              then emit a)
            d2;
          Hashtbl.replace t.pair_done key (n1, n2)
        end
      end)
    t.links;
  t.theory_clauses <- t.theory_clauses + (t.added_clauses - before)

let encode_chunk t db chunk =
  let before = t.added_clauses in
  let ctx = { deps = []; chunk_clauses = 0; atom_selectors = []; link_vids = [] } in
  mint_atoms t ctx db chunk;
  collect_links t ctx chunk;
  let root = encode_node t ctx chunk in
  let act = Cdcl.new_var t.solver in
  add_clause t [| -act; root |];
  Hashtbl.replace t.chunks chunk
    {
      act;
      deps = ctx.deps;
      link_vids = ctx.link_vids;
      clauses = t.added_clauses - before;
    };
  act

let deps_fresh db deps =
  List.for_all
    (fun (rel, version) ->
      let current =
        match Database.find_table db rel with
        | Some table -> Table.version table
        | None -> -1
      in
      current = version)
    deps

let check ?conflict_limit ?deadline_ns t db ~chunks =
  match
    List.find_opt (fun chunk -> Hashtbl.mem t.failed chunk) chunks
  with
  | Some chunk -> V_unsupported (Hashtbl.find t.failed chunk)
  | None ->
    (* The clause budget bounds *garbage* (clauses gated by retired
       activation literals), not the live working set: rebuild only when
       the solver holds more than twice the clauses the cached chunks
       account for, and has outgrown the nominal budget.  A legitimately
       large live body stays resident instead of thrashing through a
       rebuild per check. *)
    let live =
      Hashtbl.fold (fun _ e acc -> acc + e.clauses) t.chunks 0 + t.theory_clauses
    in
    if t.added_clauses > max_clauses && t.added_clauses > 2 * live then reset t;
    (* Encode what's missing (new chunks, or chunks whose tables moved
       under them), then repair the shared equality theory once. *)
    let result =
      try
        let encoded_any = ref false in
        let acts =
          List.map
            (fun chunk ->
              match Hashtbl.find_opt t.chunks chunk with
              | Some entry when deps_fresh db entry.deps -> entry.act
              | Some _ | None ->
                (* Stale entries are dropped; the old activation literal
                   is simply never assumed again, so the garbage clauses
                   it gates stay inert. *)
                Hashtbl.remove t.chunks chunk;
                encoded_any := true;
                (try encode_chunk t db chunk
                 with Chunk_failed why ->
                   Hashtbl.replace t.failed chunk why;
                   raise (Chunk_failed why)))
            chunks
        in
        if !encoded_any then repair_equality_theory t;
        Ok acts
      with Chunk_failed why -> Error why
    in
    (match result with
     | Error why -> V_unsupported why
     | Ok assumptions ->
       let touches_oversized =
         Hashtbl.length t.oversized > 0
         && List.exists
              (fun chunk ->
                match Hashtbl.find_opt t.chunks chunk with
                | Some entry ->
                  List.exists (fun vid -> Hashtbl.mem t.oversized vid) entry.link_vids
                | None -> false)
              chunks
       in
       if touches_oversized then V_unsupported "equality class too large to SAT-encode"
       else begin
         match Cdcl.solve ?conflict_limit ?deadline_ns ~assumptions t.solver with
         | Cdcl.Unsat -> V_unsat
         | Cdcl.Sat ->
           let subst =
             Hashtbl.fold
               (fun (vid, value) l acc ->
                 if Cdcl.value t.solver l then
                   Subst.bind { Term.vname = "x"; vid } (Term.C value) acc
                 else acc)
               t.value_lits Subst.empty
           in
           V_sat subst
       end)
