(** Incremental CNF session: composed-body satisfiability encoded as a
    persistent delta against one live {!Cdcl} instance, for incremental
    solving under assumptions.

    Per-transaction chunks of a composed body are encoded once and gated
    behind activation literals; a check solves under exactly the live
    chunks' activations, so learned clauses survive across admissions and
    a rejected chunk's clauses stay behind as inert garbage.  Chunks are
    keyed to the table versions they read and re-encoded when those move;
    the session rebuilds itself when accumulated garbage exceeds the
    clause budget. *)

type t

type verdict =
  | V_sat of Logic.Subst.t
      (** decoded model over every value literal the session holds —
          restrict to the variables of interest before use *)
  | V_unsat  (** unsatisfiable under the live chunks *)
  | V_unsupported of string
      (** a chunk is not (re-)encodable — negative atoms, order
          constraints, candidate/clause budget, oversized equality class;
          the caller falls back to another backend *)

val create : unit -> t

val check :
  ?conflict_limit:int ->
  ?deadline_ns:int64 ->
  t ->
  Relational.Database.t ->
  chunks:Logic.Formula.t list ->
  verdict
(** Is the conjunction of [chunks] satisfiable against [db]?  Encodes
    whatever is missing, then solves under the chunks' activation
    literals.  @raise Cdcl.Conflict_budget_exceeded and
    @raise Cdcl.Timed_out on budget blowups (the session stays usable —
    the governor ladder owns the retry). *)

val stats : t -> Cdcl.stats
(** Cumulative across the session's lifetime, including solver rebuilds. *)

val resets : t -> int
(** How many times the clause budget forced a session rebuild. *)

val live_clauses : t -> int
(** Clauses pushed into the current solver instance (including inert
    garbage — the rebuild trigger). *)

val reset : t -> unit
(** Drop everything (chunks, theory, learned clauses) and start from an
    empty solver; cumulative {!stats} are preserved and {!resets} counts
    the call.  A check right after [reset] is a from-scratch solve. *)
