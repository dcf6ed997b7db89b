(* Workload definitions, read from workloads.json.

   The file records, per workload, the sizes, the fixed serve rate and the
   fingerprint of the request sequence its canonical seed generates; the
   benchmark regenerates that sequence on every start and refuses to run
   when it no longer matches, so drift in the travel generator cannot
   silently change what is measured. *)

type inproc = {
  passes : int;  (** runs of each round over identical inputs, see [Inproc] *)
  flights : int;
  rows : int;  (** seat rows per flight, three seats each *)
  pairs_per_flight : int;
  k : int;
  cache_capacity : int;
  reads : bool;  (** a Collapse seat read after every booking *)
}

type serve = {
  s_rows : int;
  s_pairs : int;  (** traveller pairs per flight *)
  s_entangled_pairs : int;  (** of which book with the partner condition *)
  low_rps : float;  (** open-loop rate the latency metrics are taken at *)
  window : int;  (** outstanding requests in the closed-loop capacity phase *)
}

type shape =
  | Inproc of inproc
  | Serve of serve

type t = {
  name : string;
  seed : int;  (** canonical seed the digest is recorded at *)
  digest : string;
  shape : shape;
}

let get conv what name json =
  match Option.bind (Obs.Json.member name json) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "workloads.json: %S is missing or not %s" name what)

let int_field =
  get
    (fun j ->
      match Obs.Json.to_number j with
      | Some x when Float.is_integer x -> Some (int_of_float x)
      | _ -> None)
    "an integer"

let float_field = get Obs.Json.to_number "a number"
let string_field = get Obs.Json.to_str "a string"
let bool_field = get (function Obs.Json.Bool b -> Some b | _ -> None) "a boolean"

let of_json name json =
  let shape =
    match string_field "kind" json with
    | "inproc" ->
      Inproc
        {
          passes = int_field "passes" json;
          flights = int_field "flights" json;
          rows = int_field "rows" json;
          pairs_per_flight = int_field "pairs_per_flight" json;
          k = int_field "k" json;
          cache_capacity = int_field "cache_capacity" json;
          reads = bool_field "reads" json;
        }
    | "serve" ->
      Serve
        {
          s_rows = int_field "rows" json;
          s_pairs = int_field "pairs_per_flight" json;
          s_entangled_pairs = int_field "entangled_pairs" json;
          low_rps = float_field "low_rps" json;
          window = int_field "window" json;
        }
    | kind -> failwith (Printf.sprintf "workloads.json: unknown kind %S" kind)
  in
  { name; seed = int_field "seed" json; digest = string_field "digest" json; shape }

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.of_string text with
  | Obs.Json.Obj fields -> List.map (fun (name, json) -> of_json name json) fields
  | _ -> failwith "workloads.json: expected an object of workloads"

(* Smaller inputs for smoke runs: fewer flights, or fewer seats on a
   workload of one deep flight.  serve_steady shrinks with --seconds. *)
let scaled factor t =
  let by x = max 1 (int_of_float (Float.round (float_of_int x *. factor))) in
  match t.shape with
  | Inproc s when s.flights > 1 -> { t with shape = Inproc { s with flights = by s.flights } }
  | Inproc s ->
    let rows = max 2 (by s.rows) in
    { t with shape = Inproc { s with rows; pairs_per_flight = min (by s.pairs_per_flight) (3 * rows / 2) } }
  | Serve _ -> t

(* A traced run takes one pass per round: the per-layer sums come from one
   pass anyway, and both halves of the run must match for the overhead. *)
let single_pass t =
  match t.shape with
  | Inproc s -> { t with shape = Inproc { s with passes = 1 } }
  | Serve _ -> t
