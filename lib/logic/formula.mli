(** Composed-body formulas (Section 3.2.1 of the paper).

    Negation-normal by construction: composition only produces negated
    unification predicates (disjunctions of disequalities) and negated atoms.
    Use the smart constructors — they simplify eagerly. *)

type t =
  | True
  | False
  | Atom of Atom.t  (** must ground on the extensional database *)
  | Not_atom of Atom.t  (** must be absent from the extensional database *)
  | Key_free of Atom.t
      (** no extensional row may share this tuple's key (insert safety
          under set semantics) *)
  | Eq of Term.t * Term.t
  | Neq of Term.t * Term.t
  | Lt of Term.t * Term.t  (** strict order under {!Relational.Value.compare} *)
  | Le of Term.t * Term.t
  | And of t list
  | Or of t list

val tru : t
val fls : t
val atom : Atom.t -> t
val not_atom : Atom.t -> t
val key_free : Atom.t -> t
val eq : Term.t -> Term.t -> t
val neq : Term.t -> Term.t -> t
val lt : Term.t -> Term.t -> t
val le : Term.t -> Term.t -> t
val and_ : t list -> t
val or_ : t list -> t

val negate : t -> t
(** De Morgan within the grammar; atoms flip to their duals.
    @raise Invalid_argument on [Key_free], which has no dual here. *)

val of_equations : (Term.t * Term.t) list -> t
(** Conjunction of equalities — a unification predicate (Definition 3.3). *)

val vars : t -> Term.Var_set.t

val apply_subst : Subst.t -> t -> t
(** Applies with physical-equality fast paths: subformulas the
    substitution does not touch are returned unchanged (same node), so
    sharing from {!intern} survives repeated application. *)

val conjuncts : t -> t list
(** Top-level clause list of a composed body: [And fs] gives [fs], [True]
    the empty list, anything else a singleton.  [and_ (conjuncts f)] is
    equivalent to [f]. *)

val intern : t -> t
(** Hash-cons: structurally equal subformulas interned on the same domain
    return physically equal nodes, making the [apply_subst]/solver
    fast paths fire and deduplicating repeated clauses.  Semantically the
    identity.  The intern table is per-domain (thread-safe by
    construction); it is bounded and may be dropped under pressure. *)

type stats = {
  atoms : int;
  negative_atoms : int;
  equalities : int;
  disequalities : int;
  or_nodes : int;
  or_branches : int;
  variables : int;
}

val stats : t -> stats

exception Unbound of Term.var

val eval : Relational.Database.t -> (Term.var -> Relational.Value.t option) -> t -> bool
(** Ground semantics under a valuation; the specification the solver is
    tested against.  A relation with no table is empty.  @raise Unbound on
    a free variable the valuation does not cover. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
