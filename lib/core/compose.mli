(** Composition of resource transactions — Lemma 3.4 / Theorem 3.5,
    generalized to sequences with temporal insert/delete tracking, plus
    delete-existence and insert key-safety obligations. *)

type context = Rtxn.t list
(** Earlier pending transactions, oldest first. *)

val clause_for_atom : context -> Logic.Atom.t -> Logic.Formula.t
(** The grounding clause for one body atom appended after [context]: ground
    on the database avoiding all earlier pending deletes, or on an earlier
    pending insert not deleted in between. *)

type key_resolver = string -> int array option
(** Key column positions per relation; [None] means the whole tuple. *)

val whole_tuple_key : key_resolver

val resolver_of_db : Relational.Database.t -> key_resolver
(** Resolver backed by a live catalog — required when composing against a
    real database, so the key predicates match how [Formula.Key_free] is
    evaluated. *)

val key_predicate :
  key_resolver -> Logic.Atom.t -> Logic.Atom.t -> Logic.Formula.t
(** ϕ restricted to key columns: when two atoms denote same-key tuples. *)

val insert_safety : ?key_of:key_resolver -> context -> Logic.Atom.t -> Logic.Formula.t
(** Key-safety: the inserted tuple's key is free (or freed by an earlier
    pending delete) and distinct from every earlier pending insert's key. *)

val intra_update_constraints : ?key_of:key_resolver -> Rtxn.t -> Logic.Formula.t list
(** Applicability within one transaction: no two deletes may target the
    same tuple, no two inserts the same key. *)

val clauses_for :
  ?check_inserts:bool -> ?key_of:key_resolver -> context -> Rtxn.t -> Logic.Formula.t
(** Everything [txn] contributes to the composed body when appended. *)

val body_of_sequence :
  ?check_inserts:bool -> ?key_of:key_resolver -> Rtxn.t list -> Logic.Formula.t
(** The full composed body of a pending sequence; its satisfiability over
    the extensional database is the quantum-database invariant. *)

val soft_clauses_for : context -> Rtxn.t -> Logic.Formula.t list
(** The transaction's optional obligations, rewritten into the same
    composition context (soft units for {!Solver.Soft.solve}). *)

(** Incrementally composed bodies: one clause chunk per pending
    transaction, so admission appends a delta instead of recomposing the
    sequence.  [formula] is structurally identical to what the eager
    construction produced.  Chunks are interned ({!Logic.Formula.intern}). *)
module Inc : sig
  type t

  val empty : unit -> t

  val compose : ?check_inserts:bool -> ?key_of:key_resolver -> Rtxn.t list -> t
  (** From-scratch composition of a sequence (the invalidation path —
      grounding, aborts, blind-write resplits); chunk-per-transaction
      equivalent of {!body_of_sequence}. *)

  val delta :
    ?check_inserts:bool -> ?key_of:key_resolver -> context -> Rtxn.t -> Logic.Formula.t
  (** The chunk [txn] contributes after [context] ({!clauses_for},
      interned).  Does not mutate anything: callers [extend] on success
      and drop the chunk on rejection. *)

  val extend : t -> Logic.Formula.t -> unit
  (** Append a newly admitted transaction's chunk. *)

  val formula : t -> Logic.Formula.t
  (** The flattened composed body (memoized until the next [extend]). *)

  val clause_count : t -> int
  (** Top-level conjunct count — the [qdb.partition.composed_clauses]
      observability gauge. *)

  val merge : t list -> t
  (** Concatenate partitions' chunk lists (their bodies share no
      variables, so conjunction in partition order is the merged body). *)
end
