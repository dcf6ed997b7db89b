(* The quantum database engine (Sections 3 and 4).

   A quantum database is an extensional store plus an ordered set of
   pending (committed, not yet grounded) resource transactions, organised
   into independent partitions.  The engine maintains the invariant that
   every partition's composed body is satisfiable over the current
   extensional database — equivalently, that the represented set of
   possible worlds is nonempty — and transforms the state on:

   - [submit]: admission-check a new resource transaction (Section 3.2.1),
   - [read]: answer a query, collapsing impacted pending transactions
     under the chosen read policy (Section 3.2.2),
   - [write]: admission-check a blind external write (Section 3.2.2),
   - [ground]: fix value assignments under strict or semantic
     serializability (Section 3.2.3).

   Durability follows the prototype (Section 4): pending transactions are
   serialized into a [__pending_xacts] table before the commit is
   acknowledged, and groundings delete their entry in the same atomic
   batch as their updates. *)

module Database = Relational.Database
module Store = Relational.Store
module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Sexp = Relational.Sexp
open Logic

let log_src = Logs.Src.create "quantum.qdb" ~doc:"Quantum database engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type serializability =
  | Strict (* ground in arrival order: classical serializability *)
  | Semantic (* reorder-to-front when the reordered body stays satisfiable *)

type read_policy =
  | Collapse (* fix impacted values at read time (the paper's choice) *)
  | Peek (* answer from the current witness without fixing anything *)
  | Expose (* return answers across (a sample of) possible worlds *)

type solver_backend =
  | Backtracking (* dynamic-order search with solution cache (default) *)
  | Limit_one_plan of int (* static plans with bounded optimizer lookahead *)

type config = {
  k : int; (* max pending transactions per partition *)
  serializability : serializability;
  read_policy : read_policy;
  backend : solver_backend;
  node_limit : int;
  adaptive : bool; (* phase-transition-aware forced grounding *)
  adaptive_slack : float; (* min resources-per-pending-delete before fixing *)
  cache_capacity : int; (* witnesses per partition (Section 4's multi-solution strategy) *)
  incremental : bool;
  (* delta-composed, witness-seeded admission (default).  [false] is the
     from-scratch ablation: recompose the whole sequence and solve it
     unseeded on every admission — the pre-incremental cost profile the
     admission bench compares against. *)
  governor : Governor.t;
  (* per-admission budget + degradation ladder.  The default inherits
     [node_limit] and has no deadline, reproducing the engine's
     historical behaviour except that budget exhaustion now degrades
     instead of escaping as a raw solver exception. *)
}

let default_config =
  {
    k = 61; (* the prototype's MySQL join ceiling *)
    serializability = Semantic;
    read_policy = Collapse;
    backend = Backtracking;
    node_limit = Solver.Backtrack.default_node_limit;
    adaptive = false;
    adaptive_slack = 1.5;
    cache_capacity = Solver.Cache.default_capacity;
    incremental = true;
    governor = Governor.default;
  }

let pending_table_name = "__pending_xacts"

type grounding = {
  txn : Rtxn.t;
  valuation : Logic.Subst.t;
  optional_satisfied : bool array;
}

type t = {
  store : Store.t;
  parts : Partition.t;
  config : config;
  metrics : Metrics.t;
  mutable next_id : int;
  (* chaos hook (fault-injection harness): consulted for every job of a
     partition round (cache refill, write recheck) with a deterministic
     (kind, round seq, job index) coordinate; raising aborts the whole
     round.  [None] in production. *)
  mutable fault_injector : (kind:string -> fanout:int -> job:int -> unit) option;
  mutable fanout_seq : int;
}

type commit_result =
  | Committed of int
  | Rejected of string
  | Overloaded of string

exception Inconsistent of string

exception Engine_overloaded of string
(* A grounding solve ran out of budget even after escalation.  Distinct
   from [Inconsistent]: the composed body is satisfiable by invariant —
   the engine could not afford to re-prove it, not disprove it. *)

let inconsistent fmt = Format.kasprintf (fun msg -> raise (Inconsistent msg)) fmt

let db t = Store.db t.store
let metrics t = t.metrics
let config t = t.config
let pending_count t = Partition.pending_count t.parts
let pending t = Partition.all_pending t.parts
let partition_count t = List.length (Partition.partitions t.parts)
let partition_manager t = t.parts

(* Per-partition (pending count, composed-body statistics) — the joins a
   LIMIT-1 compilation of each invariant check would need; the prototype's
   MySQL backend capped these at 61. *)
let partition_stats t =
  List.map
    (fun p -> (List.length p.Partition.txns, Formula.stats (Partition.formula p)))
    (Partition.partitions t.parts)

let partition_witnesses t =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (List.map
       (fun p -> (p.Partition.pid, Solver.Cache.witnesses p.Partition.cache))
       (Partition.partitions t.parts))

let composed_clause_total t =
  List.fold_left
    (fun n p -> n + Partition.composed_clauses p)
    0
    (Partition.partitions t.parts)

let max_partition_size t =
  List.fold_left
    (fun m p -> max m (List.length p.Partition.txns))
    0
    (Partition.partitions t.parts)

let pending_schema =
  Schema.make ~name:pending_table_name
    ~columns:[ Schema.column "id" Value.Tint; Schema.column "payload" Value.Tstr ]
    ~key:[ "id" ] ()

(* Key resolver backed by the live catalog, so composition emits
   key-accurate insert-safety and delete-freeing predicates. *)
let key_resolver store rel =
  match Store.find_table store rel with
  | Some table -> Some (Schema.key_indices (Relational.Table.schema table))
  | None -> None

let create ?(config = default_config) store =
  (match Store.find_table store pending_table_name with
   | Some _ -> ()
   | None -> ignore (Store.create_table store pending_schema));
  let metrics = Metrics.create () in
  {
    store;
    parts =
      Partition.create ~cache_stats:metrics.Metrics.cache_stats
        ~solver_stats:metrics.Metrics.solver_stats ~key_of:(key_resolver store)
        ~cache_capacity:config.cache_capacity ();
    config;
    metrics;
    next_id = 0;
    fault_injector = None;
    fanout_seq = 0;
  }

(* Chaos hook for one round of [jobs] partition jobs: with an injector
   installed, consult it for every job — keyed on the round's sequence
   number and the job's index — before any job runs, so an injected raise
   aborts the round before it changed anything. *)
let inject_faults t ~kind jobs =
  match t.fault_injector with
  | None -> ()
  | Some inject ->
    let fanout = t.fanout_seq in
    t.fanout_seq <- fanout + 1;
    for job = 0 to jobs - 1 do
      inject ~kind ~fanout ~job
    done

let set_fault_injector t inject = t.fault_injector <- Some inject
let clear_fault_injector t = t.fault_injector <- None

let pending_row txn =
  Tuple.of_list
    [ Value.Int txn.Rtxn.id; Value.Str (Sexp.to_string (Rtxn.to_sexp txn)) ]

(* -- Solver dispatch ------------------------------------------------------ *)

(* Three-way admission verdict: budget exhaustion is structurally
   distinct from unsatisfiability, so it can never masquerade as a
   semantic rejection. *)
type check_verdict =
  | Check_sat of Logic.Subst.t
  | Check_unsat
  | Check_overload of string

(* Admission check through the configured backend, under the governor's
   budget and degradation ladder.  The backtracking backend goes through
   the partition's solution cache: each cached witness is tried as a seed
   over just the new transaction's clauses (the unaffected pending
   transactions stay pinned), and only when every extension fails does it
   force [full_formula] for an unseeded re-solve — so acceptance
   decisions match the from-scratch path exactly, while extension hits
   never flatten the whole body.

   On exhaustion the ladder climbs: bounded escalated retries of the
   incremental solve (deterministic jittered backoff between rungs),
   then one degraded full-recompose solve at the next escalation rung,
   then [Check_overload] — nothing is mutated along the way.  The LIMIT-1
   ablation gets one solve at the first rung's budget and no ladder. *)
let check_admission t (p : Partition.partition) ~gov ~salt ~new_clauses ~full_formula =
  let database = db t in
  let charge = Governor.arm gov in
  let deadline_ns = Governor.deadline charge in
  let node_budget retry = Governor.node_budget charge ~default_limit:t.config.node_limit ~retry in
  let exhausted reason =
    t.metrics.Metrics.governor_exhaustions <- t.metrics.Metrics.governor_exhaustions + 1;
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"governor"
        ~args:[ ("partition", Obs.Trace.Int p.Partition.pid); ("reason", Obs.Trace.Str reason) ]
        "governor.exhausted";
    reason
  in
  let full_solve ~node_limit () =
    Solver.Cache.solve_full ~node_limit ?deadline_ns p.Partition.cache database
      (Lazy.force full_formula)
  in
  let rec climb retry =
    let node_limit = node_budget retry in
    match
      if t.config.incremental then
        Solver.Cache.try_extend ~node_limit ?deadline_ns p.Partition.cache database
          ~new_clauses ~full_formula
      else full_solve ~node_limit ()
    with
    | Solver.Cache.Sat w -> Check_sat w
    | Solver.Cache.Unsat -> Check_unsat
    | Solver.Cache.Exhausted reason ->
      let reason = exhausted reason in
      if Governor.expired charge then Check_overload reason
      else if retry < Governor.max_retries charge then begin
        t.metrics.Metrics.governor_retries <- t.metrics.Metrics.governor_retries + 1;
        Governor.backoff charge ~salt ~retry;
        climb (retry + 1)
      end
      else begin
        (* Last rung before refusing: one unseeded full-recompose solve
           with a further-escalated budget.  For the non-incremental
           ablation this is just one more escalation of the same solve. *)
        t.metrics.Metrics.governor_degraded_full_solve <-
          t.metrics.Metrics.governor_degraded_full_solve + 1;
        match full_solve ~node_limit:(node_budget (retry + 1)) () with
        | Solver.Cache.Sat w -> Check_sat w
        | Solver.Cache.Unsat -> Check_unsat
        | Solver.Cache.Exhausted reason -> Check_overload (exhausted reason)
      end
  in
  (* Ladder orchestration is its own flight phase; the solves inside
     account themselves (exclusively) as cache/solve time. *)
  Obs.Flight.time Obs.Flight.Governor @@ fun () ->
  match t.config.backend with
  | Backtracking -> climb 0
  | Limit_one_plan depth ->
    (match
       Obs.Flight.time Obs.Flight.Solve (fun () ->
           Solver.Limit_one.solve ~search_depth:depth ~node_limit:(node_budget 0) ?deadline_ns
             database (Lazy.force full_formula))
     with
     | Some w ->
       Solver.Cache.set_witness p.Partition.cache w;
       Check_sat w
     | None -> Check_unsat
     | exception Solver.Backtrack.Too_many_nodes ->
       Check_overload (exhausted "solver node budget exhausted")
     | exception Solver.Backtrack.Timed_out ->
       Check_overload (exhausted "admission deadline exceeded")
     | exception Solver.Limit_one.Formula_too_large ->
       Check_overload (exhausted "composed body too large for LIMIT-1 expansion"))

(* -- Grounding (Section 3.2.3) -------------------------------------------- *)

(* Position-aware soft clauses: the optional obligations of each grounded
   transaction, composed against every *other* transaction in the
   partition (a partner's pending insert must be visible to the adjacency
   optional regardless of arrival order). *)
let soft_units sequence grounded =
  List.concat_map
    (fun txn ->
      let others = List.filter (fun t -> t.Rtxn.id <> txn.Rtxn.id) sequence in
      let units = Compose.soft_clauses_for others txn in
      List.map (fun u -> (txn.Rtxn.id, u)) units)
    grounded

(* Ground the transactions [targets] of partition [p]:
   - Strict: the prefix of the arrival order up to the last target;
   - Semantic: targets move to the front when the reordered composed body
     is still satisfiable, otherwise fall back to Strict.
   Solves the whole partition body with the targets' optionals as soft
   units, applies the grounded transactions' updates (and pending-table
   deletions) in one atomic batch, then recomposes and re-splits the
   remainder. *)
let ground_partition_body t (p : Partition.partition) target_ids =
  let database = db t in
  let is_target txn = List.mem txn.Rtxn.id target_ids in
  let arrival = p.Partition.txns in
  let strict_sequence_and_cut () =
    (* Everything up to the last target grounds too. *)
    let rec last_pos i pos = function
      | [] -> pos
      | txn :: rest -> last_pos (i + 1) (if is_target txn then i else pos) rest
    in
    let cut = last_pos 0 (-1) arrival in
    (arrival, cut + 1)
  in
  (* Seed for re-solves: the cached witness restricted to the variables of
     the transactions that are NOT being grounded.  This pins every
     unaffected transaction to its current planned grounding, so the
     search only ranges over the targets — the incremental behaviour the
     paper's solution cache is for.  An unseeded solve remains the
     fallback (bounded, since near-full states make exhaustive search
     explode). *)
  let others_seed exclude =
    match Solver.Cache.witness p.Partition.cache with
    | None -> None
    | Some w ->
      let keep =
        List.fold_left
          (fun acc txn ->
            if List.exists (fun g -> g.Rtxn.id = txn.Rtxn.id) exclude then acc
            else Term.Var_set.union acc (Rtxn.all_vars txn))
          Term.Var_set.empty arrival
      in
      Some (Subst.restrict keep w)
  in
  (* [precomposed] carries the reordered body forward when reordering
     succeeded, so the hard formula below is not composed a second time. *)
  let sequence, cut, precomposed =
    match t.config.serializability with
    | Strict ->
      let s, c = strict_sequence_and_cut () in
      (s, c, None)
    | Semantic ->
      let targets, others = List.partition is_target arrival in
      let reordered = targets @ others in
      let reordered_body =
        Obs.Flight.time Obs.Flight.Compose (fun () ->
            Compose.body_of_sequence ~key_of:(key_resolver t.store) reordered)
      in
      let sat seed =
        Obs.Flight.time Obs.Flight.Solve (fun () ->
            Solver.Backtrack.satisfiable ~node_limit:t.config.node_limit ?seed
              ~stats:t.metrics.Metrics.solver_stats database reordered_body)
      in
      let reorder_ok =
        (* Exhaustion here is NOT "reordering is unsatisfiable" — it is a
           counted recovery retry that degrades to strict arrival order,
           the always-available conservative schedule. *)
        let sat_or_degrade seed =
          try sat seed
          with Solver.Backtrack.Too_many_nodes ->
            t.metrics.Metrics.governor_exhaustions <-
              t.metrics.Metrics.governor_exhaustions + 1;
            false
        in
        match others_seed targets with
        | Some seed -> sat_or_degrade (Some seed) || sat_or_degrade None
        | None -> sat_or_degrade None
      in
      if reorder_ok then (reordered, List.length targets, Some reordered_body)
      else
        let s, c = strict_sequence_and_cut () in
        (s, c, None)
  in
  let grounded_txns = List.filteri (fun i _ -> i < cut) sequence in
  let remaining = List.filteri (fun i _ -> i >= cut) sequence in
  if grounded_txns = [] then []
  else begin
    let hard =
      match precomposed with
      | Some f -> f
      | None ->
        Obs.Flight.time Obs.Flight.Compose (fun () ->
            Compose.body_of_sequence ~key_of:(key_resolver t.store) sequence)
    in
    let soft = soft_units sequence grounded_txns in
    let soft_formulas = List.map snd soft in
    let solve ?seed ?(node_limit = t.config.node_limit) () =
      Obs.Flight.time Obs.Flight.Solve (fun () ->
          Solver.Soft.solve ~node_limit ?seed ~stats:t.metrics.Metrics.solver_stats database
            ~hard ~soft:soft_formulas)
    in
    let all_satisfied o = Solver.Soft.satisfied_count o = List.length soft in
    let exhausted () =
      t.metrics.Metrics.governor_exhaustions <- t.metrics.Metrics.governor_exhaustions + 1
    in
    (* Escalated unseeded budget for when a solve blows its primary
       budget: the partition body is satisfiable by invariant, so running
       out of nodes is a budget problem, never proof of inconsistency. *)
    let escalated_limit =
      Governor.node_budget
        (Governor.arm t.config.governor)
        ~default_limit:t.config.node_limit ~retry:1
    in
    let solve_escalated_or_overload () =
      t.metrics.Metrics.governor_retries <- t.metrics.Metrics.governor_retries + 1;
      try solve ~node_limit:escalated_limit ()
      with Solver.Backtrack.Too_many_nodes ->
        exhausted ();
        raise
          (Engine_overloaded
             (Printf.sprintf "partition %d: grounding solve budget exhausted" p.Partition.pid))
    in
    (* Seeded solve first; when the pinned context blocks some optional,
       retry unseeded with a reduced budget and keep the better outcome.
       A seeded budget blowup (previously an uncaught escape) climbs the
       same ladder as admission: escalated unseeded retry, then a
       structured overload error. *)
    let outcome =
      match others_seed grounded_txns with
      | Some seed ->
        (match
           try `Solved (solve ~seed ())
           with Solver.Backtrack.Too_many_nodes ->
             exhausted ();
             `Blown
         with
         | `Solved (Some seeded) when all_satisfied seeded -> Some seeded
         | `Solved seeded ->
           let unseeded =
             (* Tightly bounded: near-full states make exhaustive optional
                search degenerate into pigeonhole proofs; a failed repair
                attempt must stay cheap.  Exhaustion of this *optional*
                repair keeps the seeded outcome — a counted degradation,
                not a rejection. *)
             try solve ~node_limit:(max 1000 (t.config.node_limit / 256)) ()
             with Solver.Backtrack.Too_many_nodes ->
               exhausted ();
               None
           in
           (match seeded, unseeded with
            | Some a, Some b ->
              if Solver.Soft.satisfied_count b > Solver.Soft.satisfied_count a then Some b
              else Some a
            | Some a, None -> Some a
            | None, other -> other)
         | `Blown -> solve_escalated_or_overload ())
      | None ->
        (try solve ()
         with Solver.Backtrack.Too_many_nodes ->
           exhausted ();
           solve_escalated_or_overload ())
    in
    match outcome with
    | None ->
      inconsistent "partition %d: invariant violated, composed body unsatisfiable"
        p.Partition.pid
    | Some { Solver.Soft.valuation; satisfied } ->
      (* Per-transaction optional satisfaction flags. *)
      let groundings =
        List.map
          (fun txn ->
            let optional_satisfied =
              soft
              |> List.mapi (fun i (id, _) -> (i, id))
              |> List.filter_map (fun (i, id) ->
                if id = txn.Rtxn.id then Some satisfied.(i) else None)
              |> Array.of_list
            in
            { txn; valuation; optional_satisfied })
          grounded_txns
      in
      (* One atomic batch: every grounded transaction's updates in sequence
         order, plus its pending-table deletion. *)
      let ops =
        List.concat_map
          (fun txn ->
            Rtxn.ops_under txn valuation
            @ [ Database.Delete (pending_table_name, pending_row txn) ])
          grounded_txns
      in
      (match Obs.Flight.time Obs.Flight.Wal (fun () -> Store.apply t.store ops) with
       | Ok () -> ()
       | Error err ->
         inconsistent "grounding batch failed: %s" (Database.op_error_to_string err));
      t.metrics.Metrics.grounded <- t.metrics.Metrics.grounded + List.length grounded_txns;
      Log.debug (fun m ->
          m "grounded [%s] (%d left pending in partition %d)"
            (String.concat "," (List.map (fun x -> x.Rtxn.label) grounded_txns))
            (List.length remaining) p.Partition.pid);
      (* Rebuild the partition over the remainder.  The stale chunk cache
         is not recomposed here: [resplit] recomposes each independent
         group from scratch anyway (grounding is an invalidation point),
         and [p] itself is discarded by it. *)
      Partition.set_txns t.parts p remaining;
      let remaining_vars =
        List.fold_left
          (fun acc txn -> Term.Var_set.union acc (Rtxn.all_vars txn))
          Term.Var_set.empty remaining
      in
      Solver.Cache.set_witness p.Partition.cache (Subst.restrict remaining_vars valuation);
      ignore (Partition.resplit t.parts p);
      groundings
  end

(* Every grounding call — explicit, read-induced, partner arrival or
   k-pressure — funnels through here, so one span covers the whole
   collapse step of the lifecycle. *)
let ground_in_partition t (p : Partition.partition) target_ids =
  let grounded = ref [] in
  Obs.Trace.span ~cat:"qdb"
    ~args:(fun () ->
      [ ("partition", Obs.Trace.Int p.Partition.pid);
        ("targets", Obs.Trace.Int (List.length target_ids));
        ("grounded", Obs.Trace.Int (List.length !grounded));
      ])
    "qdb.ground"
    (fun () ->
      (* Ground phase self time = orchestration; its solves and the WAL
         batch account themselves (exclusively) inside. *)
      let gs =
        Obs.Flight.time Obs.Flight.Ground (fun () -> ground_partition_body t p target_ids)
      in
      grounded := gs;
      gs)

let ground t id =
  match Partition.find_txn t.parts id with
  | None -> []
  | Some (p, _) ->
    Metrics.observe t.metrics.Metrics.ground_latency (fun () -> ground_in_partition t p [ id ])

let ground_all t =
  Metrics.observe t.metrics.Metrics.ground_latency (fun () ->
      List.concat_map
        (fun p -> ground_in_partition t p (List.map (fun x -> x.Rtxn.id) p.Partition.txns))
        (Partition.partitions t.parts))

(* -- Adaptive grounding (Section 6, phase transitions) -------------------- *)

(* Constrainedness estimate of a partition: remaining resources per
   pending delete, per relation.  When the minimum slack drops under the
   configured threshold the problem is approaching its hard region and
   the engine pre-emptively grounds the older half of the partition,
   trading allocation quality for response time, as Section 6 suggests. *)
let partition_slack t (p : Partition.partition) =
  let database = db t in
  let demand = Hashtbl.create 8 in
  List.iter
    (fun txn ->
      List.iter
        (fun d ->
          let rel = d.Atom.rel in
          Hashtbl.replace demand rel (1 + Option.value ~default:0 (Hashtbl.find_opt demand rel)))
        (Rtxn.deletes txn))
    p.Partition.txns;
  Hashtbl.fold
    (fun rel count slack ->
      match Database.find_table database rel with
      | None -> slack
      | Some table ->
        Float.min slack (float_of_int (Relational.Table.cardinality table) /. float_of_int count))
    demand infinity

let adapt_partition t (p : Partition.partition) =
  if t.config.adaptive && List.length p.Partition.txns > 1 then begin
    if partition_slack t p < t.config.adaptive_slack then begin
      let n = List.length p.Partition.txns / 2 in
      let oldest = List.filteri (fun i _ -> i < n) p.Partition.txns in
      t.metrics.Metrics.forced_groundings <- t.metrics.Metrics.forced_groundings + List.length oldest;
      if Obs.Trace.on () then
        Obs.Trace.instant ~cat:"qdb"
          ~args:
            [ ("txns", Obs.Trace.Int (List.length oldest));
              ("reason", Obs.Trace.Str "adaptive");
            ]
          "qdb.forced_ground";
      ignore (ground_in_partition t p (List.map (fun x -> x.Rtxn.id) oldest))
    end
  end

(* -- Submission (Section 3.2.1) ------------------------------------------- *)

(* Multi-solution caches (Section 4's background-process strategy): top
   every partition below capacity back up after the state changed, in
   ascending-pid order (the reverse of [Partition.partitions]), inline on
   the commit path with a tight per-solve budget.  The refill is
   best-effort: a fault injected into any job of the round abandons the
   whole round before the first refill runs. *)
let refill_caches t =
  if t.config.cache_capacity > 1 then begin
    Obs.Flight.time Obs.Flight.Coordination @@ fun () ->
    let below =
      List.rev
        (List.filter
           (fun p -> not (Solver.Cache.full p.Partition.cache))
           (Partition.partitions t.parts))
    in
    if below <> [] then
      match inject_faults t ~kind:"refill" (List.length below) with
      | exception e ->
        t.metrics.Metrics.refill_failures <- t.metrics.Metrics.refill_failures + 1;
        Log.warn (fun m ->
            m "cache refill abandoned (%d partitions): %s" (List.length below)
              (Printexc.to_string e));
        if Obs.Trace.on () then
          Obs.Trace.instant ~cat:"cache"
            ~args:[ ("partitions", Obs.Trace.Int (List.length below)) ]
            "cache.refill_failed"
      | () ->
        let database = db t in
        let node_limit = max 1000 (t.config.node_limit / 256) in
        List.iter
          (fun p ->
            ignore
              (Solver.Cache.refill ~node_limit p.Partition.cache database (Partition.formula p)))
          below
  end

(* Ground pending partners eagerly: an entangled resource transaction is
   executed as soon as its partner arrives (Section 5.1). *)
let trigger_partners t committed =
  let waiting_for_me = Partition.waiting_for t.parts committed.Rtxn.label in
  let my_partner =
    match committed.Rtxn.trigger with
    | Rtxn.On_partner p ->
      List.filter
        (fun txn -> txn.Rtxn.id <> committed.Rtxn.id)
        (Partition.labelled t.parts p)
    | Rtxn.On_demand -> []
  in
  match waiting_for_me @ my_partner with
  | [] -> []
  | partners ->
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"qdb"
        ~args:
          [ ("label", Obs.Trace.Str committed.Rtxn.label);
            ("partners", Obs.Trace.Int (List.length partners));
          ]
        "qdb.partner_trigger";
    (* Ground the committed transaction together with every partner that
       was waiting; they share a partition by construction (their atoms
       unify through the coordination constraint), but be defensive and
       group by partition. *)
    let ids = committed.Rtxn.id :: List.map (fun x -> x.Rtxn.id) partners in
    let by_partition = Hashtbl.create 4 in
    List.iter
      (fun id ->
        match Partition.find_txn t.parts id with
        | Some (p, _) ->
          let existing =
            match Hashtbl.find_opt by_partition p.Partition.pid with
            | Some (_, ids) -> ids
            | None -> []
          in
          Hashtbl.replace by_partition p.Partition.pid (p, id :: existing)
        | None -> ())
      ids;
    Hashtbl.fold (fun _ (p, ids) acc -> ground_in_partition t p ids @ acc) by_partition []

(* An admission that passed its satisfiability check but has not yet
   mutated anything durable: the two-phase split the actor runtime's
   cross-partition protocol needs.  Everything [prepare_admission] did —
   partition merges, k-pressure groundings, cache witness movement — is
   exactly what a *rejected* admission also does and leaves behind, so
   an abort needs no rollback; commit is where the sequence, the chunk
   cache, the pending table and the WAL change. *)
type prepared = {
  prep_p : Partition.partition;
  prep_txn : Rtxn.t;
  prep_new_clauses : Formula.t;
}

type admission_step =
  | Admission_prepared of prepared
  | Admission_refused of commit_result

let rec prepare_admission t txn ~gov ~attempts =
  let dependent = Partition.dependents t.parts txn in
  let prior, merged_body = Partition.merged_view dependent in
  (* k-bound (Section 4): force-ground the oldest pending transaction of
     the would-be partition until the new one fits. *)
  if List.length prior >= t.config.k && attempts < t.config.k + 1 then begin
    match prior with
    | [] -> assert false
    | oldest :: _ ->
      (match Partition.find_txn t.parts oldest.Rtxn.id with
       | Some (p, _) ->
         t.metrics.Metrics.forced_groundings <- t.metrics.Metrics.forced_groundings + 1;
         if Obs.Trace.on () then
           Obs.Trace.instant ~cat:"qdb"
             ~args:
               [ ("txn", Obs.Trace.Int oldest.Rtxn.id);
                 ("reason", Obs.Trace.Str "k_pressure");
               ]
             "qdb.forced_ground";
         ignore (ground_in_partition t p [ oldest.Rtxn.id ])
       | None -> ());
      prepare_admission t txn ~gov ~attempts:(attempts + 1)
  end
  else begin
    if List.length dependent > 1 then begin
      t.metrics.Metrics.partition_merges <- t.metrics.Metrics.partition_merges + 1;
      if Obs.Trace.on () then
        Obs.Trace.instant ~cat:"qdb"
          ~args:[ ("partitions", Obs.Trace.Int (List.length dependent)) ]
          "qdb.partition_merge"
    end;
    let witness = Partition.merge_witnesses dependent in
    let p = Partition.replace t.parts dependent prior merged_body witness in
    (* Delta composition: only the new transaction's clauses are built;
       the partition's chunk cache already holds everything earlier.  The
       flattened full body is forced only when witness extension misses
       (or a non-default backend needs it); the ablation recomposes the
       whole sequence from scratch instead, like the pre-incremental
       engine did. *)
    Obs.Flight.note_chunks_reused (List.length prior);
    let new_clauses =
      Obs.Flight.time Obs.Flight.Compose (fun () ->
          Compose.Inc.delta ~key_of:(key_resolver t.store) prior txn)
    in
    let full_formula =
      if t.config.incremental then
        lazy
          (Obs.Flight.time Obs.Flight.Compose (fun () ->
               Formula.and_ [ Compose.Inc.formula merged_body; new_clauses ]))
      else
        lazy
          (Obs.Flight.time Obs.Flight.Compose (fun () ->
               Compose.body_of_sequence ~key_of:(key_resolver t.store) (prior @ [ txn ])))
    in
    match check_admission t p ~gov ~salt:txn.Rtxn.id ~new_clauses ~full_formula with
    | Check_sat _ ->
      Admission_prepared { prep_p = p; prep_txn = txn; prep_new_clauses = new_clauses }
    | Check_unsat ->
      t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
      Log.info (fun m -> m "rejected %s: no consistent grounding exists" txn.Rtxn.label);
      Admission_refused
        (Rejected
           (Printf.sprintf "transaction %s: no consistent grounding exists" txn.Rtxn.label))
    | Check_overload reason ->
      (* Every budget rung ran dry.  Like a rejection, nothing was
         mutated: chunk cache, pending table and WAL are untouched, so
         the same transaction can be resubmitted with a bigger budget. *)
      t.metrics.Metrics.overloaded <- t.metrics.Metrics.overloaded + 1;
      Log.warn (fun m -> m "overloaded %s: %s" txn.Rtxn.label reason);
      Admission_refused (Overloaded (Printf.sprintf "transaction %s: %s" txn.Rtxn.label reason))
  end

(* Second phase of a successful admission: extend the partition (sequence
   + chunk cache in one step), durably record the pending transaction
   before acknowledging (Section 4, Recovery), then run the post-commit
   work — cache refills, partner triggers, adaptive grounding. *)
let finish_commit t { prep_p = p; prep_txn = txn; prep_new_clauses = new_clauses } =
  (* The chunk cache extends only on success; a rejected transaction
     leaves the partition's body untouched. *)
  Partition.append_txn t.parts p txn ~new_clauses;
  (match
     Obs.Flight.time Obs.Flight.Wal (fun () ->
         Store.apply t.store [ Database.Insert (pending_table_name, pending_row txn) ])
   with
   | Ok () -> ()
   | Error err -> inconsistent "pending-table insert: %s" (Database.op_error_to_string err));
  t.metrics.Metrics.committed <- t.metrics.Metrics.committed + 1;
  Log.debug (fun m ->
      m "committed %d:%s (partition of %d pending)" txn.Rtxn.id txn.Rtxn.label
        (List.length p.Partition.txns));
  refill_caches t;
  ignore (trigger_partners t txn);
  adapt_partition t p;
  Committed txn.Rtxn.id

let admit t txn ~gov ~attempts =
  match prepare_admission t txn ~gov ~attempts with
  | Admission_prepared pr -> finish_commit t pr
  | Admission_refused result -> result

(* -- Two-phase admission (cross-partition coordination) --------------------

   The exception path of the actor model: a coordinator needs every
   participating engine to hold an admission in the prepared state until
   all of them have voted.  [prepare] runs the full admission check and
   stops just short of mutating the durable state; [commit_prepared]
   finishes it; [abort_prepared] walks away — safe without rollback
   because a prepared admission has changed exactly what a rejected one
   does (partition merges and k-pressure groundings persist by design).

   Between an engine's [prepare] and its [commit_prepared] /
   [abort_prepared] no other operation may run on that engine — in the
   actor runtime the freeze window of the owning actor guarantees it.

   Accounting: a refused prepare is a complete submission (counted with
   its outcome here); a successful prepare counts nothing until
   [commit_prepared] (submitted + committed together); an abort counts
   nothing at all — so committed + rejected + overloaded = submitted
   holds at every quiescent point, whatever mix of paths ran. *)

let prepare ?governor t txn =
  let gov = Option.value governor ~default:t.config.governor in
  let txn = Rtxn.freshen txn in
  let txn = { txn with Rtxn.id = t.next_id } in
  Rtxn.validate txn;
  t.next_id <- t.next_id + 1;
  match prepare_admission t txn ~gov ~attempts:0 with
  | Admission_prepared pr -> Ok pr
  | Admission_refused result ->
    t.metrics.Metrics.submitted <- t.metrics.Metrics.submitted + 1;
    Error result

let prepared_id pr = pr.prep_txn.Rtxn.id

let commit_prepared t pr =
  t.metrics.Metrics.submitted <- t.metrics.Metrics.submitted + 1;
  finish_commit t pr

let abort_prepared _t pr =
  (* Nothing durable to undo; just witness hygiene.  The prepare's
     satisfiability check may have extended cached witnesses over the
     aborted transaction's variables — fresh variables nothing else
     references — so project the cache back onto the partition's live
     ones. *)
  let p = pr.prep_p in
  let live_vars =
    List.fold_left
      (fun acc txn -> Term.Var_set.union acc (Rtxn.all_vars txn))
      Term.Var_set.empty p.Partition.txns
  in
  Solver.Cache.restrict_witnesses p.Partition.cache live_vars;
  Log.debug (fun m -> m "aborted prepared %d:%s" pr.prep_txn.Rtxn.id pr.prep_txn.Rtxn.label)

let submit ?governor t txn =
  t.metrics.Metrics.submitted <- t.metrics.Metrics.submitted + 1;
  let gov = Option.value governor ~default:t.config.governor in
  let txn = Rtxn.freshen txn in
  let txn = { txn with Rtxn.id = t.next_id } in
  Rtxn.validate txn;
  t.next_id <- t.next_id + 1;
  let outcome = ref "exception" in
  (* Flight record: one per submission, with the solver-work delta over
     this engine's stats (phase times accrue via the recorder's own
     instrumentation points).  Closed in [finally] so a rejected or even
     exploding admission still leaves its record. *)
  let stats = t.metrics.Metrics.solver_stats in
  let nodes0 = stats.Solver.Backtrack.nodes in
  let candidates0 = stats.Solver.Backtrack.candidates in
  Obs.Flight.begin_admission ~txn_id:txn.Rtxn.id ~label:txn.Rtxn.label;
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.end_admission ~outcome:!outcome
        ~solver_nodes:(stats.Solver.Backtrack.nodes - nodes0)
        ~solver_candidates:(stats.Solver.Backtrack.candidates - candidates0))
    (fun () ->
      (* One clock serves both the total and the per-outcome latency
         split (accept / reject / overload — the contention bench's raw
         material); an escaping exception still records the total. *)
      let start = Obs.Mclock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Obs.Mclock.elapsed_s start in
          Obs.Histogram.observe t.metrics.Metrics.submit_latency dt;
          match !outcome with
          | "committed" -> Obs.Histogram.observe t.metrics.Metrics.accept_latency dt
          | "rejected" -> Obs.Histogram.observe t.metrics.Metrics.reject_latency dt
          | "overloaded" -> Obs.Histogram.observe t.metrics.Metrics.overload_latency dt
          | _ -> ())
        (fun () ->
          Obs.Trace.span ~cat:"qdb"
            ~args:(fun () ->
              [ ("id", Obs.Trace.Int txn.Rtxn.id);
                ("label", Obs.Trace.Str txn.Rtxn.label);
                ("outcome", Obs.Trace.Str !outcome);
              ])
            "qdb.submit"
            (fun () ->
              let result = admit t txn ~gov ~attempts:0 in
              (outcome :=
                 match result with
                 | Committed _ -> "committed"
                 | Rejected _ -> "rejected"
                 | Overloaded _ -> "overloaded");
              result)))

(* -- Reads (Section 3.2.2) ------------------------------------------------ *)

(* Impacted pending transactions: the conservative unifiability criterion
   — a query atom unifies with a pending update — checked only on the
   partitions the dependence index returns, in [pending] order. *)
let read_impact t (q : Solver.Query.t) = Partition.impacted t.parts q.Solver.Query.body

(* Shadow database: current extensional state plus every pending
   transaction's updates under the cached witnesses. *)
let shadow_db t =
  let shadow = Database.copy (db t) in
  List.iter
    (fun p ->
      match Solver.Cache.witness p.Partition.cache with
      | None -> ()
      | Some w ->
        List.iter
          (fun txn ->
            match Database.apply_ops shadow (Rtxn.ops_under txn w) with
            | Ok () -> ()
            | Error _ -> ())
          p.Partition.txns)
    (Partition.partitions t.parts);
  shadow

let read ?policy t q =
  t.metrics.Metrics.reads <- t.metrics.Metrics.reads + 1;
  let policy = Option.value ~default:t.config.read_policy policy in
  let policy_name =
    match policy with
    | Collapse -> "collapse"
    | Peek -> "peek"
    | Expose -> "expose"
  in
  let n_answers = ref 0 in
  Metrics.observe t.metrics.Metrics.read_latency @@ fun () ->
  Obs.Trace.span ~cat:"qdb"
    ~args:(fun () ->
      [ ("policy", Obs.Trace.Str policy_name); ("answers", Obs.Trace.Int !n_answers) ])
    "qdb.read"
  @@ fun () ->
  let result =
    (fun () ->
      match policy with
      | Collapse ->
        let impacted = read_impact t q in
        List.iter
          (fun txn ->
            match Partition.find_txn t.parts txn.Rtxn.id with
            | Some (p, _) ->
              t.metrics.Metrics.forced_groundings <- t.metrics.Metrics.forced_groundings + 1;
              if Obs.Trace.on () then
                Obs.Trace.instant ~cat:"qdb"
                  ~args:[ ("txn", Obs.Trace.Int txn.Rtxn.id); ("reason", Obs.Trace.Str "read") ]
                  "qdb.collapse";
              ignore (ground_in_partition t p [ txn.Rtxn.id ])
            | None -> () (* already grounded by an earlier impact in this read *))
          impacted;
        Solver.Query.all (db t) q
      | Peek -> Solver.Query.all (shadow_db t) q
      | Expose ->
        (* Sample possible worlds: enumerate groundings per partition (a
           bounded number) and union the answers over each resulting
           world. *)
        let worlds_limit = 32 in
        let answers = Hashtbl.create 16 in
        let rec explore parts world =
          match parts with
          | [] ->
            List.iter
              (fun tuple -> Hashtbl.replace answers tuple ())
              (Solver.Query.all world q)
          | p :: rest ->
            let solutions =
              Solver.Backtrack.solutions ~limit:worlds_limit (db t) (Partition.formula p)
            in
            (match solutions with
             | [] -> explore rest world
             | _ ->
               List.iter
                 (fun w ->
                   let forked = Database.copy world in
                   let ok =
                     List.for_all
                       (fun txn ->
                         match Database.apply_ops forked (Rtxn.ops_under txn w) with
                         | Ok () -> true
                         | Error _ -> false
                         | exception Rtxn.Ill_formed _ -> false)
                       p.Partition.txns
                   in
                   if ok then explore rest forked)
                 solutions)
        in
        explore (Partition.partitions t.parts) (Database.copy (db t));
        Hashtbl.fold (fun tuple () acc -> tuple :: acc) answers [])
      ()
  in
  n_answers := List.length result;
  result

(* -- Blind writes (Section 3.2.2) ------------------------------------------ *)

let write t ops =
  t.metrics.Metrics.writes <- t.metrics.Metrics.writes + 1;
  let accepted = ref false in
  Obs.Trace.span ~cat:"qdb"
    ~args:(fun () ->
      [ ("ops", Obs.Trace.Int (List.length ops)); ("accepted", Obs.Trace.Bool !accepted) ])
    "qdb.write"
  @@ fun () ->
  let record result =
    accepted := Result.is_ok result;
    result
  in
  record
  @@
  let database = db t in
  let atoms_of_ops =
    List.map
      (fun op ->
        match op with
        | Database.Insert (rel, tuple) | Database.Delete (rel, tuple) ->
          Atom.of_tuple rel tuple)
      ops
  in
  let affected =
    List.filter
      (fun p ->
        List.exists
          (fun txn -> Unify.any_unifiable atoms_of_ops (Rtxn.all_atoms txn))
          p.Partition.txns)
      (Partition.partitions t.parts)
  in
  (* Apply tentatively, re-check every affected composed body, then either
     keep (logging through the store) or roll back. *)
  match Database.apply_ops database ops with
  | Error err -> Error (Database.op_error_to_string err)
  | Ok () ->
    (* Every affected partition's verdict is computed against the
       tentative database before any is installed, so a job that raises
       midway (an injected fault, a solver blowup) leaves every cache as
       it was; the raise still reaches the rollback below, so the write
       is never left half-applied.  Outcomes are installed only when the
       write is accepted: a refused write rolls the database back, and a
       cache solved against the tentative state could hold a witness
       that no longer fits it. *)
    let verdict =
      try
        Obs.Flight.time Obs.Flight.Coordination @@ fun () ->
        inject_faults t ~kind:"recheck" (List.length affected);
        let outcomes =
          List.map
            (fun (p : Partition.partition) ->
              Obs.Trace.span ~cat:"cache"
                ~args:(fun () -> [ ("partition", Obs.Trace.Int p.Partition.pid) ])
                "cache.recheck"
              @@ fun () ->
              Solver.Cache.recheck_compute ~node_limit:t.config.node_limit
                ~stats:t.metrics.Metrics.solver_stats database
                ~witnesses:(Solver.Cache.witnesses p.Partition.cache)
                ~formula:(Partition.formula p))
            affected
        in
        let still_ok =
          not (List.exists (function Solver.Cache.Unsat_now -> true | _ -> false) outcomes)
        in
        if still_ok then
          List.iter2
            (fun p outcome -> ignore (Solver.Cache.recheck_install p.Partition.cache outcome))
            affected outcomes;
        `Checked still_ok
      with e -> `Aborted (Printexc.to_string e)
    in
    (* Roll back the tentative application; on acceptance re-apply through
       the store so the WAL sees it. *)
    List.iter (fun op -> Database.apply_op database (Database.invert op)) (List.rev ops);
    match verdict with
    | `Aborted reason ->
      (* Conservative refusal: no caches were installed (installs run after
         every verdict is in), the database is back to its pre-write
         state, and nothing reached the WAL. *)
      t.metrics.Metrics.writes_rejected <- t.metrics.Metrics.writes_rejected + 1;
      Obs.Trace.instant ~cat:"qdb" "qdb.write_aborted";
      Log.warn (fun m -> m "blind write aborted: revalidation failed (%s)" reason);
      Error (Printf.sprintf "write revalidation aborted: %s" reason)
    | `Checked still_ok ->
    if still_ok then begin
      match Obs.Flight.time Obs.Flight.Wal (fun () -> Store.apply t.store ops) with
      | Ok () -> Ok ()
      | Error err -> Error (Database.op_error_to_string err)
    end
    else begin
      t.metrics.Metrics.writes_rejected <- t.metrics.Metrics.writes_rejected + 1;
      Log.info (fun m -> m "blind write refused: conflicts with pending transactions");
      Error "write conflicts with pending resource transactions"
    end

(* -- Telemetry ------------------------------------------------------------- *)

(* Full registry view of this engine: metrics counters and latency
   histograms, plus live gauges (pending set, partitions) and the durable
   store's WAL counters.  This is what the CLI's `stats` subcommand and
   the bench harness export. *)
let registry t =
  let reg = Metrics.snapshot t.metrics in
  Obs.Registry.set_gauge reg "qdb.pending" (float_of_int (pending_count t));
  Obs.Registry.set_gauge reg "qdb.partitions" (float_of_int (partition_count t));
  Obs.Registry.set_gauge reg "qdb.max_partition_size" (float_of_int (max_partition_size t));
  (* Incremental clause-cache observability: total composed-body size and
     one gauge per live partition. *)
  Obs.Registry.set_gauge reg "qdb.partition.composed_clauses"
    (float_of_int (composed_clause_total t));
  List.iter
    (fun p ->
      Obs.Registry.set_gauge reg
        (Printf.sprintf "qdb.partition.%d.composed_clauses" p.Partition.pid)
        (float_of_int (Partition.composed_clauses p)))
    (Partition.partitions t.parts);
  let ws = Store.wal_stats t.store in
  Obs.Registry.set_counter reg "wal.records" ws.Relational.Wal.records;
  Obs.Registry.set_counter reg "wal.batches" ws.Relational.Wal.batches;
  Obs.Registry.set_counter reg "wal.checkpoints" ws.Relational.Wal.checkpoints;
  Obs.Registry.set_counter reg "wal.bytes" ws.Relational.Wal.bytes;
  Obs.Registry.set_counter reg "wal.syncs" ws.Relational.Wal.syncs;
  (match Store.recovery_report t.store with
   | None -> ()
   | Some r ->
     let g = Obs.Registry.set_gauge reg in
     g "wal.recovery.records_kept" (float_of_int r.Relational.Wal.records_kept);
     g "wal.recovery.records_dropped" (float_of_int r.Relational.Wal.records_dropped);
     g "wal.recovery.batches_applied" (float_of_int r.Relational.Wal.batches_applied);
     g "wal.recovery.truncated"
       (if r.Relational.Wal.truncation_reason <> None then 1.0 else 0.0));
  reg

(* -- Invariant check (tests, possible-worlds cross-validation) ------------- *)

(* Test hook: the partition manager's tables must match a rebuild from
   its partition lists.  Beyond satisfiability of the live (incrementally
   composed) bodies, recompose each partition from scratch and require
   agreement — the delta-composition equivalence property — and that
   every cached witness still seeds a successful solve of the
   from-scratch body. *)
let invariant_holds t =
  Partition.index_consistent t.parts
  && List.for_all
    (fun p ->
      let sat ?seed f =
        Solver.Backtrack.satisfiable ?seed ~node_limit:t.config.node_limit (db t) f
      in
      let scratch = Compose.body_of_sequence ~key_of:(key_resolver t.store) p.Partition.txns in
      sat scratch
      && sat (Partition.formula p)
      && List.for_all (fun w -> sat ~seed:w scratch) (Solver.Cache.witnesses p.Partition.cache))
    (Partition.partitions t.parts)

(* -- Recovery (Section 4) -------------------------------------------------- *)

(* Rebuild the quantum state from the pending-transactions table: parse
   every recorded transaction, then recompose partitions in admission
   order without re-running admission checks (they held before the crash
   and the extensional state is exactly the pre-crash committed state). *)
let recovery_report t = Store.recovery_report t.store

let recover ?(config = default_config) ?strict backend =
  let store = Store.crash_and_recover ?strict backend in
  let t = create ~config store in
  let table = Store.table store pending_table_name in
  let rows = List.sort Tuple.compare (Relational.Table.to_list table) in
  let txns =
    List.map
      (fun row ->
        match Tuple.to_list row with
        | [ Value.Int id; Value.Str payload ] ->
          let txn = Rtxn.of_sexp (Sexp.of_string payload) in
          { txn with Rtxn.id }
        | _ -> inconsistent "malformed pending-transactions row")
      rows
  in
  List.iter
    (fun txn ->
      t.next_id <- max t.next_id (txn.Rtxn.id + 1);
      let dependent = Partition.dependents t.parts txn in
      let prior, merged_body = Partition.merged_view dependent in
      let witness = Partition.merge_witnesses dependent in
      let p = Partition.replace t.parts dependent prior merged_body witness in
      let new_clauses = Compose.Inc.delta ~key_of:(key_resolver store) prior txn in
      let full_formula =
        lazy (Formula.and_ [ Compose.Inc.formula merged_body; new_clauses ])
      in
      (* Restore the witness invariant eagerly (the full formula must not
         include the new chunk twice, so extend only afterwards). *)
      ignore
        (Solver.Cache.extend_or_resolve ~node_limit:config.node_limit p.Partition.cache (db t)
           ~new_clauses ~full_formula);
      Partition.append_txn t.parts p txn ~new_clauses)
    txns;
  t
