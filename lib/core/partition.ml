(* Independent-set partitioning of pending transactions (Section 4,
   "Quantum State").

   Two pending transactions belong to the same partition when their
   dependence atoms (hard body and updates) unify — the conservative
   dependence test of the paper.  Each partition carries its own composed
   body, its own solution cache and its own transaction order;
   transactions over disjoint resources (different flights) stay in
   different partitions, which is what keeps admission checks small and
   Figure 7 linear.

   Partitions merge on admission: the partitions a new transaction
   depends on are replaced by one fresh partition holding all of their
   transactions ([replace]).  They split on grounding: [resplit] regroups
   what is left of a partition into connected groups, because a grounded
   transaction may have been the only bridge between two of them.

   Routing never scans the whole pending set.  Three tables mirror the
   partition lists:
   - txn id -> owning partition ([find_txn], [pending_count]);
   - the dependence index: key -> ids of the pending transactions with a
     dependence atom of that key.  A key is an atom's relation, arity and
     first argument: a constant, [Var] for a variable, or [Any] for the
     bucket of every atom of the relation.  A probe atom with constant
     head [c] reads the [c] and [Var] buckets; a variable-headed probe
     reads [Any].  The owners of the ids found are always a superset of
     the partitions the probe can unify with, and the exact unification
     test then runs on those candidates only ([dependents], [impacted]);
   - the partner index: label -> pending transactions with that label,
     and label -> transactions waiting [On_partner] for it ([labelled],
     [waiting_for]).
   The last two are keyed by transaction, not by partition: they change
   only when a transaction enters or leaves the pending set
   ([append_txn], [set_txns]), so merging or re-splitting partitions —
   which every admission does — costs them nothing.  Every membership
   change goes through this module ([set_txns], [append_txn], [replace],
   [resplit]).

   [partitions] is kept in descending pid order and every sequence in
   ascending id order, so index lookups return their results in exactly
   the order a scan of [all_pending] would: merges, groundings and pids
   come out as they would from the exhaustive scans. *)

open Logic
module Value = Relational.Value

type partition = {
  pid : int;
  mutable txns : Rtxn.t list; (* sequence order: oldest (lowest id) first *)
  mutable body : Compose.Inc.t; (* composed hard body of [txns], chunk per txn *)
  cache : Solver.Cache.t;
}

let formula p = Compose.Inc.formula p.body
let composed_clauses p = Compose.Inc.clause_count p.body

(* Dependence-index key: an atom's relation, arity and first argument. *)
type head =
  | Const of Value.t
  | Var
  | Any (* every atom of the relation *)

module Key = struct
  type t = {
    rel : string;
    arity : int;
    head : head;
  }

  let equal a b =
    a.arity = b.arity
    && String.equal a.rel b.rel
    &&
    match a.head, b.head with
    | Const x, Const y -> Value.equal x y
    | Var, Var | Any, Any -> true
    | (Const _ | Var | Any), _ -> false

  let hash k =
    let head =
      match k.head with
      | Const v -> Value.hash v
      | Var -> 1
      | Any -> 2
    in
    (((Hashtbl.hash k.rel * 31) + k.arity) * 31) + head
end

module Index = Hashtbl.Make (Key)
module Ids = Hashtbl.Make (Int)
module Pid_map = Map.Make (Int)

type t = {
  mutable partitions : partition list; (* descending pid *)
  mutable next_pid : int;
  by_txn : (int, partition) Hashtbl.t; (* txn id -> owning partition *)
  index : unit Ids.t Index.t; (* key -> ids of pending txns *)
  by_label : (string, Rtxn.t list) Hashtbl.t; (* label -> pending txns *)
  waiting : (string, Rtxn.t list) Hashtbl.t; (* label -> its On_partner waiters *)
  cache_stats : Solver.Cache.stats;
  solver_stats : Solver.Backtrack.stats option; (* shared with partition caches *)
  (* recomposition settings, mirrored from the engine config *)
  key_of : Compose.key_resolver;
  cache_capacity : int;
}

let create ?(cache_stats = Solver.Cache.fresh_stats ()) ?solver_stats
    ?(key_of = Compose.whole_tuple_key) ?(cache_capacity = Solver.Cache.default_capacity) () =
  {
    partitions = [];
    next_pid = 0;
    by_txn = Hashtbl.create 64;
    index = Index.create 64;
    by_label = Hashtbl.create 64;
    waiting = Hashtbl.create 64;
    cache_stats;
    solver_stats;
    key_of;
    cache_capacity;
  }

let partitions t = t.partitions
let pending_count t = Hashtbl.length t.by_txn
let all_pending t = List.concat_map (fun p -> p.txns) t.partitions

let find_txn t id =
  match Hashtbl.find_opt t.by_txn id with
  | None -> None
  | Some p ->
    (* The partition's own sequence is short (k-bounded). *)
    List.find_map (fun txn -> if txn.Rtxn.id = id then Some (p, txn) else None) p.txns

(* -- Index maintenance ------------------------------------------------------ *)

let key (a : Atom.t) head = { Key.rel = a.Atom.rel; arity = Atom.arity a; head }

let head_of (a : Atom.t) =
  if Atom.arity a = 0 then Var
  else
    match a.Atom.args.(0) with
    | Term.C v -> Const v
    | Term.V _ -> Var

(* The buckets a pending transaction's atom is filed under. *)
let stored_keys a = [ key a (head_of a); key a Any ]

(* The buckets a probe atom reads: every pending atom it can unify with is
   filed under one of them. *)
let probe_keys a =
  match head_of a with
  | Const _ as c -> [ key a c; key a Var ]
  | Var | Any -> [ key a Any ]

let add_to tbl label txn =
  Hashtbl.replace tbl label (txn :: Option.value ~default:[] (Hashtbl.find_opt tbl label))

let remove_from tbl label txn =
  match Hashtbl.find_opt tbl label with
  | None -> ()
  | Some txns ->
    (match List.filter (fun x -> x.Rtxn.id <> txn.Rtxn.id) txns with
     | [] -> Hashtbl.remove tbl label
     | rest -> Hashtbl.replace tbl label rest)

let partner_label txn =
  match txn.Rtxn.trigger with
  | Rtxn.On_partner label -> Some label
  | Rtxn.On_demand -> None

(* Each key once: a transaction's body atom and its delete are usually
   the same atom. *)
let distinct atoms =
  List.fold_left (fun acc a -> if List.exists (Atom.equal a) acc then acc else a :: acc) [] atoms

let index_keys txn = List.concat_map stored_keys (distinct (Rtxn.dependence_atoms txn))

(* A transaction enters or leaves the pending set: the index and partner
   tables follow. *)
let enter t txn =
  List.iter
    (fun k ->
      let ids =
        match Index.find_opt t.index k with
        | Some ids -> ids
        | None ->
          let ids = Ids.create 4 in
          Index.add t.index k ids;
          ids
      in
      Ids.replace ids txn.Rtxn.id ())
    (index_keys txn);
  add_to t.by_label txn.Rtxn.label txn;
  Option.iter (fun label -> add_to t.waiting label txn) (partner_label txn)

let leave t txn =
  List.iter
    (fun k ->
      match Index.find_opt t.index k with
      | Some ids ->
        Ids.remove ids txn.Rtxn.id;
        if Ids.length ids = 0 then Index.remove t.index k
      | None -> ())
    (index_keys txn);
  remove_from t.by_label txn.Rtxn.label txn;
  Option.iter (fun label -> remove_from t.waiting label txn) (partner_label txn)

(* Ownership only: the pending set is unchanged when transactions move
   between partitions. *)
let register t p = List.iter (fun txn -> Hashtbl.replace t.by_txn txn.Rtxn.id p) p.txns
let unregister t p = List.iter (fun txn -> Hashtbl.remove t.by_txn txn.Rtxn.id) p.txns

(* The only sanctioned way to change a partition's membership: keeps the
   tables in sync.  Only the transactions that enter or leave are
   re-keyed. *)
let set_txns t p txns =
  let mem txn l = List.exists (fun x -> x.Rtxn.id = txn.Rtxn.id) l in
  List.iter
    (fun txn ->
      if not (mem txn txns) then begin
        Hashtbl.remove t.by_txn txn.Rtxn.id;
        leave t txn
      end)
    p.txns;
  List.iter (fun txn -> if not (mem txn p.txns) then enter t txn) txns;
  p.txns <- txns;
  register t p

(* The admission success path and recovery share one append: the
   sequence extension and the chunk-cache extension move together, so
   the tables, the transaction order and the composed body can never
   disagree about what was admitted.  Only the new member is keyed: the
   cost stays flat however large the partition is. *)
let append_txn t p txn ~new_clauses =
  p.txns <- p.txns @ [ txn ];
  Hashtbl.replace t.by_txn txn.Rtxn.id p;
  enter t txn;
  Compose.Inc.extend p.body new_clauses

let fresh_partition t txns body =
  let p =
    {
      pid = t.next_pid;
      txns;
      body;
      cache =
        Solver.Cache.create ~stats:t.cache_stats ?solver_stats:t.solver_stats
          ~capacity:t.cache_capacity ();
    }
  in
  t.next_pid <- t.next_pid + 1;
  register t p;
  p

let depends txn p =
  let atoms = Rtxn.dependence_atoms txn in
  List.exists (fun other -> Unify.any_unifiable atoms (Rtxn.dependence_atoms other)) p.txns

(* -- Index lookups ---------------------------------------------------------- *)

(* Partitions that may hold an atom unifying one of [atoms], in descending
   pid order. *)
let candidates t atoms =
  let found = ref Pid_map.empty in
  List.iter
    (fun a ->
      List.iter
        (fun k ->
          match Index.find_opt t.index k with
          | Some ids ->
            Ids.iter
              (fun id () ->
                let p = Hashtbl.find t.by_txn id in
                found := Pid_map.add p.pid p !found)
              ids
          | None -> ())
        (probe_keys a))
    (distinct atoms);
  Pid_map.fold (fun _ p acc -> p :: acc) !found []

let dependents t txn = List.filter (depends txn) (candidates t (Rtxn.dependence_atoms txn))

let impacted t atoms =
  List.concat_map
    (fun p ->
      List.filter
        (fun txn -> Unify.any_unifiable atoms (List.map Rtxn.update_atom txn.Rtxn.updates))
        p.txns)
    (candidates t atoms)

(* [all_pending] order: descending pid, then ascending id. *)
let in_pending_order t txns =
  let pid txn = (Hashtbl.find t.by_txn txn.Rtxn.id).pid in
  List.sort
    (fun a b ->
      match Int.compare (pid b) (pid a) with
      | 0 -> Int.compare a.Rtxn.id b.Rtxn.id
      | c -> c)
    txns

let lookup tbl t label = in_pending_order t (Option.value ~default:[] (Hashtbl.find_opt tbl label))
let labelled t label = lookup t.by_label t label
let waiting_for t label = lookup t.waiting t label

(* Merge partitions into a single transaction sequence ordered by admission
   id (= arrival order), with the conjoined formula.  Cross-clauses between
   formerly independent partitions are all vacuous, so conjunction is exact
   — asserted by the test suite against a from-scratch recomposition. *)
let merge_witnesses parts =
  List.fold_left
    (fun acc p ->
      match Solver.Cache.witness p.cache with
      | Some w ->
        Option.map
          (fun acc ->
            List.fold_left (fun acc (v, term) -> Subst.bind v term acc) acc (Subst.bindings w))
          acc
      | None -> None)
    (Some Subst.empty) parts

let merged_view parts =
  let txns =
    List.sort
      (fun a b -> Int.compare a.Rtxn.id b.Rtxn.id)
      (List.concat_map (fun p -> p.txns) parts)
  in
  let body = Compose.Inc.merge (List.map (fun p -> p.body) parts) in
  (txns, body)

(* Install a new partition holding [txns]/[body], replacing [old_parts];
   carries over a merged witness when every constituent had one. *)
let replace t old_parts txns body witness =
  let keep = List.filter (fun p -> not (List.memq p old_parts)) t.partitions in
  List.iter (unregister t) old_parts;
  let p = fresh_partition t txns body in
  (match witness with
   | Some w -> Solver.Cache.set_witness p.cache w
   | None -> ());
  t.partitions <- p :: keep;
  p

(* After grounding removed transactions from [p], re-partition the
   remainder into independent sets (a grounded transaction may have been
   the only bridge between two groups). *)
let resplit t p =
  unregister t p;
  t.partitions <- List.filter (fun q -> not (q == p)) t.partitions;
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"qdb"
      ~args:[ ("partition", Obs.Trace.Int p.pid); ("txns", Obs.Trace.Int (List.length p.txns)) ]
      "qdb.partition_resplit";
  let groups : Rtxn.t list list ref = ref [] in
  List.iter
    (fun txn ->
      let atoms = Rtxn.dependence_atoms txn in
      let linked, free =
        List.partition
          (fun group ->
            List.exists
              (fun other -> Unify.any_unifiable atoms (Rtxn.dependence_atoms other))
              group)
          !groups
      in
      groups := (txn :: List.concat linked) :: free)
    p.txns;
  let witness = Solver.Cache.witness p.cache in
  List.map
    (fun group ->
      let txns = List.sort (fun a b -> Int.compare a.Rtxn.id b.Rtxn.id) group in
      let body = Compose.Inc.compose ~key_of:t.key_of txns in
      let q = fresh_partition t txns body in
      (match witness with
       | Some w ->
         let vars =
           List.fold_left
             (fun acc txn -> Term.Var_set.union acc (Rtxn.all_vars txn))
             Term.Var_set.empty txns
         in
         Solver.Cache.set_witness q.cache (Subst.restrict vars w)
       | None -> ());
      t.partitions <- q :: t.partitions;
      q)
    !groups

(* Rebuild every table from the partition lists and compare; check the
   orders the lookups rely on. *)
let index_consistent t =
  let rebuilt =
    {
      t with
      by_txn = Hashtbl.create 64;
      index = Index.create 64;
      by_label = Hashtbl.create 64;
      waiting = Hashtbl.create 64;
    }
  in
  List.iter
    (fun p ->
      register rebuilt p;
      List.iter (enter rebuilt) p.txns)
    t.partitions;
  let ids_of txns = List.sort Int.compare (List.map (fun x -> x.Rtxn.id) txns) in
  let same fold view rebuilt live =
    let listing tbl = List.sort compare (fold (fun k v acc -> (k, view v) :: acc) tbl []) in
    listing rebuilt = listing live
  in
  let rec sorted key = function
    | a :: (b :: _ as rest) -> key a > key b && sorted key rest
    | [ _ ] | [] -> true
  in
  sorted (fun p -> p.pid) t.partitions
  && List.for_all (fun p -> sorted (fun txn -> -txn.Rtxn.id) p.txns) t.partitions
  && same Hashtbl.fold (fun p -> p.pid) rebuilt.by_txn t.by_txn
  && same Index.fold
       (fun ids -> List.sort Int.compare (Ids.fold (fun id () acc -> id :: acc) ids []))
       rebuilt.index t.index
  && same Hashtbl.fold ids_of rebuilt.by_label t.by_label
  && same Hashtbl.fold ids_of rebuilt.waiting t.waiting
