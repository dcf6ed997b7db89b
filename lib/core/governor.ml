(* Resource governor for the admission pipeline.

   Every admission check runs under one budget: a solver node budget and
   an optional monotonic-clock deadline, threaded from [Qdb.submit] down
   through the solution cache into the search.  When a budget runs out the engine does not guess — it climbs
   a degradation ladder:

     1. retry the witness-seeded incremental solve with an exponentially
        larger node budget (bounded retries, deterministic jittered
        backoff),
     2. fall back to one full-recompose solve with a further-escalated
        budget,
     3. report [Overloaded] — a structured outcome distinct from
        [Rejected] that leaves partition chunks, caches and the WAL
        untouched.

   The governor itself is pure configuration plus arithmetic; the ladder
   control flow lives in [Qdb.check_admission] where the counters and
   the [Obs.Flight.Governor] phase are charged.  The default governor
   reproduces the old scattered-[node_limit] behaviour exactly: base
   budget = the engine's [node_limit], no deadline, and escalated
   retries that previously did not exist only run where exhaustion used
   to escape as a raw exception. *)

type t = {
  node_budget : int option;
      (* base solver node budget per admission attempt; [None] inherits
         the engine's [config.node_limit] *)
  deadline_ns : int64 option; (* per-admission wall budget, relative ns *)
  max_retries : int; (* escalated incremental retries before degrading *)
  escalation : int; (* node-budget multiplier per ladder rung *)
  backoff_ns : int64; (* base backoff before each retry; 0 = none *)
}

let default =
  {
    node_budget = None;
    deadline_ns = None;
    max_retries = 2;
    escalation = 8;
    backoff_ns = 0L;
  }

let make ?node_budget ?deadline_ns ?(max_retries = 2) ?(escalation = 8)
    ?(backoff_ns = 0L) () =
  {
    node_budget;
    deadline_ns;
    max_retries = max 0 max_retries;
    escalation = max 1 escalation;
    backoff_ns = (if Int64.compare backoff_ns 0L > 0 then backoff_ns else 0L);
  }

(* An armed budget: the relative deadline pinned to an absolute
   monotonic-clock instant at the top of one admission. *)
type charge = {
  gov : t;
  deadline : int64 option;
}

let arm gov =
  {
    gov;
    deadline = Option.map (fun d -> Int64.add (Obs.Mclock.now_ns ()) d) gov.deadline_ns;
  }

let deadline charge = charge.deadline
let max_retries charge = charge.gov.max_retries

let expired charge =
  match charge.deadline with
  | None -> false
  | Some d -> Int64.compare (Obs.Mclock.now_ns ()) d > 0

(* Node budget of ladder rung [retry] (0 = first attempt): base times
   escalation^retry, saturating well short of overflow. *)
let node_budget charge ~default_limit ~retry =
  let base = max 1 (Option.value charge.gov.node_budget ~default:default_limit) in
  let esc = charge.gov.escalation in
  let rec go b i = if i <= 0 || b > max_int / (esc + 1) then b else go (b * esc) (i - 1) in
  go base retry

(* Deterministic jitter in [0, 1): a splitmix64-style mix of (salt,
   retry).  No global PRNG state, so identical runs — the bit-identical
   1/2/4-domain oracle included — back off identically. *)
let jitter ~salt ~retry =
  let z =
    Int64.add (Int64.mul (Int64.of_int salt) 0x9E3779B97F4A7C15L) (Int64.of_int (retry + 1))
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let bits = Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0xFFFFL) in
  float_of_int bits /. 65536.

(* Exponential backoff with jitter before retry [retry] (0-based), capped
   at 50 ms so a misconfigured governor cannot stall an admission for
   seconds.  A zero base (the default) never sleeps. *)
let backoff charge ~salt ~retry =
  if Int64.compare charge.gov.backoff_ns 0L > 0 then begin
    let base = Int64.to_float charge.gov.backoff_ns *. float_of_int (1 lsl min retry 16) in
    let ns = Float.min (base *. (0.5 +. jitter ~salt ~retry)) 50_000_000. in
    Unix.sleepf (ns /. 1e9)
  end

let pp fmt g =
  Format.fprintf fmt "@[<h>node_budget=%s deadline=%s retries=%d escalation=%dx backoff=%Ldns@]"
    (match g.node_budget with Some n -> string_of_int n | None -> "engine")
    (match g.deadline_ns with Some d -> Printf.sprintf "%Ldns" d | None -> "none")
    g.max_retries g.escalation g.backoff_ns
