(** LIMIT-1 compilation path: the paper prototype's architecture, where each
    satisfiability check becomes a statically-planned first-answer join
    query.  Slower and plan-sensitive by design — the ablation counterpart
    of {!Backtrack}. *)

exception Formula_too_large

val default_max_disjuncts : int

val solve :
  ?search_depth:int ->
  ?max_disjuncts:int ->
  ?node_limit:int ->
  ?deadline_ns:int64 ->
  ?seed:Logic.Subst.t ->
  ?stats:Backtrack.stats ->
  Relational.Database.t ->
  Logic.Formula.t ->
  Logic.Subst.t option
(** First satisfying valuation of the first disjunct that has one.
    [node_limit] and [deadline_ns] bound the joins as in
    {!Backtrack.solve}.
    @raise Formula_too_large when DNF expansion exceeds [max_disjuncts].
    @raise Backtrack.Too_many_nodes past [node_limit] expanded atoms.
    @raise Backtrack.Timed_out past the absolute monotonic-clock [deadline_ns]. *)

val satisfiable :
  ?search_depth:int ->
  ?max_disjuncts:int ->
  ?node_limit:int ->
  ?deadline_ns:int64 ->
  ?seed:Logic.Subst.t ->
  ?stats:Backtrack.stats ->
  Relational.Database.t ->
  Logic.Formula.t ->
  bool
