(** Grounding search over composed-body formulas — the satisfiability
    checker behind the quantum-database invariant.

    Equivalent to the paper's LIMIT 1 compilation: an indexed
    nested-loop-join search that stops at the first valuation, with eager
    equality propagation, most-constrained-first atom selection and
    deferred disequality / negated-atom checking.  Propagation is
    event-driven: a binding re-decides only the goals that mention the
    bound variable.  {!solve} and {!solutions} run the same search and
    differ only at a leaf: [solve] stops at the first valuation,
    [solutions] records it and stops at [limit].  A relation with no
    table is empty: a choice point over it has no candidates, a ground
    atom over it is false, and its negation and key-freedom hold. *)

(** Search effort, added to by every call that is passed the record.  The
    flight recorder, [Metrics] and the benchmark's per-layer [solver.*]
    metrics all read these counters. *)
type stats = {
  mutable nodes : int;  (** choice points expanded *)
  mutable candidates : int;  (** tuples or OR branches tried *)
  mutable backtracks : int;
      (** choice points none of whose alternatives reached a leaf; a
          relation with no table is an empty candidate stream *)
  mutable propagations : int;
      (** positive atoms checked against their table when a binding made
          them ground.  Goals are visited in the order bindings wake
          them, so a conflict may be found before some other atom is
          checked: the count depends on wake order, unlike the three
          counters above. *)
}

val fresh_stats : unit -> stats
val add_stats : into:stats -> stats -> unit

exception Too_many_nodes

exception Timed_out
(** An armed [deadline_ns] passed mid-search.  Checked every few hundred
    expanded nodes, so overruns are bounded by the work between checks. *)

val check_deadline : int64 option -> int -> unit
(** [check_deadline deadline_ns nodes], called before expanding node
    number [nodes] of a search: reads the monotonic clock when [nodes] is
    a multiple of the check stride (0 included) and raises {!Timed_out}
    once it is past [deadline_ns]. *)

val default_node_limit : int

val solve :
  ?node_limit:int ->
  ?deadline_ns:int64 ->
  ?seed:Logic.Subst.t ->
  ?stats:stats ->
  Relational.Database.t ->
  Logic.Formula.t ->
  Logic.Subst.t option
(** First satisfying valuation, or [None].  [seed] pre-binds variables —
    the solution-cache extension path.  Variables constrained only by
    deferred disequalities may stay unbound in the result (they are
    vacuously satisfiable).  @raise Too_many_nodes past [node_limit].
    @raise Timed_out past the absolute monotonic-clock [deadline_ns]. *)

val satisfiable :
  ?node_limit:int ->
  ?deadline_ns:int64 ->
  ?seed:Logic.Subst.t ->
  ?stats:stats ->
  Relational.Database.t ->
  Logic.Formula.t ->
  bool

val solutions :
  ?node_limit:int ->
  ?deadline_ns:int64 ->
  ?seed:Logic.Subst.t ->
  ?stats:stats ->
  ?limit:int ->
  Relational.Database.t ->
  Logic.Formula.t ->
  Logic.Subst.t list
(** All satisfying valuations (up to [limit]); used by read queries and the
    possible-worlds cross-checks. *)
