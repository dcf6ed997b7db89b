(* Composition of resource transactions (Lemma 3.4 / Theorem 3.5).

   The satisfiability of the composed body over the extensional database
   guarantees a consistent set of groundings for the whole pending
   sequence.  For a body atom [b] of the transaction at position [k] in
   the sequence T_0 .. T_{k} the clause is

     ⋁_{j<k} ⋁_{i ∈ inserts(T_j)} ( ϕ(b, i) ∧ ⋀_{j<m<k, d ∈ deletes(T_m)} ¬ϕ(b, d) )
     ∨ ( b ∧ ⋀_{m<k, d ∈ deletes(T_m)} ¬ϕ(b, d) )

   i.e. [b] grounds either on a tuple inserted by an earlier pending
   transaction and not deleted in between, or on the extensional database
   and on no tuple any earlier pending transaction deletes.  With a single
   earlier transaction this is exactly Lemma 3.4; the paper's Theorem 3.5
   states the two-transaction generalization and we extend it to
   sequences, tracking the temporal position of inserts and deletes.

   Beyond the paper's statement we also emit:
   - existence clauses for delete atoms that do not textually repeat a
     body atom (a delete must find its tuple when executed), and
   - key-safety clauses for inserts: an insert must not collide with a
     tuple already present (unless an earlier pending delete removes it)
     nor with an earlier pending insert.  These preserve the set-semantics
     assumption the composition proof relies on. *)

open Logic

(* The update context a new transaction composes against: earlier pending
   transactions in sequence order. *)
type context = Rtxn.t list

let negated_predicate a b = Formula.negate (Unify.predicate a b)

(* Clause for one grounding obligation [b] of the transaction at the end of
   [prior].  The negated-delete predicates are unification work, so they
   are built once per earlier transaction and shared: the database option
   uses all of them, and the insert options at position j reuse the suffix
   for positions after j (suffix lists share tails), instead of
   recomputing the predicates per position — which was quadratic in
   |prior|. *)
let clause_for_atom (prior : context) (b : Atom.t) =
  let no_deletes_per_txn =
    List.map (fun t -> List.map (negated_predicate b) (Rtxn.deletes t)) prior
  in
  (* Pair each transaction with the concatenated negated deletes of every
     LATER transaction; building right-to-left shares the suffix spines. *)
  let rec with_suffixes txns nds =
    match txns, nds with
    | [], _ | _, [] -> ([], [])
    | t :: later, nd :: later_nds ->
      let annotated, suffix_after = with_suffixes later later_nds in
      ((t, suffix_after) :: annotated, nd @ suffix_after)
  in
  let annotated, all_no_deletes = with_suffixes prior no_deletes_per_txn in
  let ground_on_db = Formula.and_ (Formula.atom b :: all_no_deletes) in
  (* Options grounding on an insert of T_j: suffix deletes are those of
     transactions after j. *)
  let insert_options =
    List.concat_map
      (fun (t, suffix_no_deletes) ->
        List.filter_map
          (fun i ->
            match Unify.predicate b i with
            | Formula.False -> None
            | phi -> Some (Formula.and_ (phi :: suffix_no_deletes)))
          (Rtxn.inserts t))
      annotated
  in
  Formula.or_ (ground_on_db :: insert_options)

(* Delete atoms that are not already body atoms need their own existence
   obligation (e.g. a cancellation transaction whose body is the booking
   it deletes states it twice in the paper's examples; when it does not,
   the obligation must still hold). *)
let delete_obligations t =
  List.filter (fun d -> not (List.exists (Atom.equal d) t.Rtxn.hard)) (Rtxn.deletes t)

(* Key columns of a relation: [key_of] resolves from the live schema; when
   it yields nothing the whole tuple is treated as the key (the
   conservative default — set semantics on full tuples). *)
type key_resolver = string -> int array option

let whole_tuple_key : key_resolver = fun _ -> None

(* Resolver backed by a live catalog.  Callers composing against a real
   database must use this (or equivalent): [Formula.Key_free] is evaluated
   against the schema's actual key, so the freeing/collision predicates
   must be built from the same key columns. *)
let resolver_of_db db : key_resolver =
 fun rel ->
  match Relational.Database.find_table db rel with
  | Some table -> Some (Relational.Schema.key_indices (Relational.Table.schema table))
  | None -> None

let key_positions (key_of : key_resolver) (a : Atom.t) =
  match key_of a.Atom.rel with
  | Some ks -> ks
  | None -> Array.init (Atom.arity a) Fun.id

(* ϕ restricted to key columns: the predicate under which two atoms of the
   same relation denote tuples with the same key. *)
let key_predicate key_of (a : Atom.t) (b : Atom.t) =
  if (not (String.equal a.Atom.rel b.Atom.rel)) || Atom.arity a <> Atom.arity b then Formula.fls
  else
    Formula.and_
      (Array.to_list
         (Array.map (fun p -> Formula.eq a.Atom.args.(p) b.Atom.args.(p)) (key_positions key_of a)))

(* Key-safety for an insert [i] of the new transaction (the set-semantics
   assumption of Section 3.2.1 enforced compositionally):

   - the key is free against the extensional database, or some earlier
     pending delete removes the tuple holding it, and
   - for every earlier pending insert [i'] (of T_j), either the keys
     differ or a delete *between* T_j and the new transaction consumes
     [i']'s tuple (full-tuple unification there: a delete removes exactly
     one concrete tuple, e.g. a cancellation consuming a pending
     booking). *)
let insert_safety ?(key_of = whole_tuple_key) (prior : context) (i : Atom.t) =
  let freed_before =
    List.concat_map
      (fun t ->
        List.filter_map
          (fun d ->
            match key_predicate key_of i d with
            | Formula.False -> None
            | phi -> Some phi)
          (Rtxn.deletes t))
      prior
  in
  let free_or_freed = Formula.or_ (Formula.key_free i :: freed_before) in
  let rec prior_insert_clauses = function
    | [] -> []
    | t :: later ->
      let consumed_later i' =
        List.concat_map
          (fun t' ->
            List.filter_map
              (fun d ->
                match Unify.predicate i' d with
                | Formula.False -> None
                | phi -> Some phi)
              (Rtxn.deletes t'))
          later
      in
      let clauses_here =
        List.filter_map
          (fun i' ->
            match key_predicate key_of i i' with
            | Formula.False -> None (* keys can never clash *)
            | key_phi ->
              Some (Formula.or_ (Formula.negate key_phi :: consumed_later i')))
          (Rtxn.inserts t)
      in
      clauses_here @ prior_insert_clauses later
  in
  Formula.and_ (free_or_freed :: prior_insert_clauses prior)

(* Intra-transaction applicability: a grounding under which two deletes of
   the same transaction target one tuple, or two inserts collide on a key,
   has no valid execution (the batch would fail halfway).  Multi-atom
   bodies make this reachable — e.g. a group booking of three seats must
   not ground two of them on the same Available row. *)
let intra_update_constraints ?(key_of = whole_tuple_key) (txn : Rtxn.t) =
  let rec delete_pairs = function
    | d1 :: rest -> List.map (fun d2 -> negated_predicate d1 d2) rest @ delete_pairs rest
    | [] -> []
  in
  let rec insert_pairs = function
    | i1 :: rest ->
      List.map (fun i2 -> Formula.negate (key_predicate key_of i1 i2)) rest @ insert_pairs rest
    | [] -> []
  in
  delete_pairs (Rtxn.deletes txn) @ insert_pairs (Rtxn.inserts txn)

(* All clauses contributed by [txn] when appended after [prior]. *)
let clauses_for ?(check_inserts = true) ?key_of (prior : context) (txn : Rtxn.t) =
  let body_clauses = List.map (clause_for_atom prior) txn.Rtxn.hard in
  let delete_clauses = List.map (clause_for_atom prior) (delete_obligations txn) in
  let insert_clauses =
    if check_inserts then List.map (insert_safety ?key_of prior) (Rtxn.inserts txn) else []
  in
  Formula.and_
    (body_clauses @ txn.Rtxn.constraints @ delete_clauses @ insert_clauses
    @ intra_update_constraints ?key_of txn)

(* The composed body of a whole sequence — Theorem 3.5 iterated. *)
let body_of_sequence ?check_inserts ?key_of (txns : Rtxn.t list) =
  let rec go prior_rev acc = function
    | [] -> Formula.and_ (List.rev acc)
    | txn :: rest ->
      let clauses = clauses_for ?check_inserts ?key_of (List.rev prior_rev) txn in
      go (txn :: prior_rev) (clauses :: acc) rest
  in
  go [] [] txns

(* -- Incrementally composed bodies (the admission hot path) ---------------

   A partition's composed body is the conjunction of one clause chunk per
   pending transaction, each composed against the transactions admitted
   before it — [body_of_sequence]'s shape, kept as a list instead of
   re-derived.  Admitting T_{k+1} appends only [delta prior T_{k+1}];
   merging partitions concatenates chunk lists; grounding, aborts and
   blind-write resplits rebuild from scratch with [compose] (the
   invalidation path, since those events change the sequence itself).
   The flattened conjunction is memoized and [formula] forces it, so the
   structural result is identical to the eager construction. *)
module Inc = struct
  type t = {
    mutable chunks_rev : Formula.t list; (* newest transaction's chunk first *)
    mutable clauses : int; (* top-level conjunct count across all chunks *)
    mutable memo : Formula.t option; (* flattened conjunction of all chunks *)
  }

  let chunk_clauses c = List.length (Formula.conjuncts c)

  let of_chunks_rev chunks_rev =
    {
      chunks_rev;
      clauses = List.fold_left (fun n c -> n + chunk_clauses c) 0 chunks_rev;
      memo = None;
    }

  let empty () = of_chunks_rev []

  let delta ?check_inserts ?key_of (prior : context) txn =
    Formula.intern (clauses_for ?check_inserts ?key_of prior txn)

  let compose ?check_inserts ?key_of (txns : Rtxn.t list) =
    let rec go prior_rev acc = function
      | [] -> of_chunks_rev acc
      | txn :: rest -> go (txn :: prior_rev) (delta ?check_inserts ?key_of (List.rev prior_rev) txn :: acc) rest
    in
    go [] [] txns

  let extend t chunk =
    t.chunks_rev <- chunk :: t.chunks_rev;
    t.clauses <- t.clauses + chunk_clauses chunk;
    t.memo <- None

  let formula t =
    match t.memo with
    | Some f -> f
    | None ->
      let f = Formula.and_ (List.rev t.chunks_rev) in
      t.memo <- Some f;
      f

  let clause_count t = t.clauses

  (* Conjunction of independent partitions' bodies; chunk order follows
     the given partition order, matching the eager [Formula.and_] merge
     this replaces. *)
  let merge ts = of_chunks_rev (List.concat_map (fun t -> t.chunks_rev) (List.rev ts))
end

(* Optional obligations of [txn] in composition context: each soft unit is
   rewritten so its atoms may also ground on earlier pending inserts,
   mirroring the hard-clause construction. *)
let soft_clauses_for (prior : context) (txn : Rtxn.t) =
  let rewrite_unit f =
    let rec rw f =
      match f with
      | Formula.Atom a -> clause_for_atom prior a
      | Formula.And fs -> Formula.and_ (List.map rw fs)
      | Formula.Or fs -> Formula.or_ (List.map rw fs)
      | Formula.True | Formula.False | Formula.Not_atom _ | Formula.Key_free _
      | Formula.Eq _ | Formula.Neq _ | Formula.Lt _ | Formula.Le _ -> f
    in
    rw f
  in
  List.map rewrite_unit (Rtxn.soft_formulas txn)
