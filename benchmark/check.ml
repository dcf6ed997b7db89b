(* Correctness checks that hold however the engine assigns values: they
   look only at outcomes a client was told and at the final tables. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Table = Relational.Table
module Database = Relational.Database

type t = {
  mutable checked : int;
  mutable failed : int;
  mutable first_failures : string list;  (** newest first, at most 10 *)
}

let create () = { checked = 0; failed = 0; first_failures = [] }

let expect t ok what =
  t.checked <- t.checked + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 10 then t.first_failures <- what () :: t.first_failures
  end

let ok t = t.failed = 0
let failures t = List.rev t.first_failures

let bookings db =
  Table.fold
    (fun row acc ->
      match Tuple.to_list row with
      | [ Value.Str u; Value.Int f; Value.Int s ] -> (u, f, s) :: acc
      | _ -> acc)
    (Database.table db "Bookings") []

(* After everything is grounded: no seat or traveller is booked twice, no
   booked seat is still available, and the bookings are exactly the
   committed travellers, each on the flight they asked for.
   [committed] maps traveller to flight. *)
let final_bookings t db ~(committed : (string, int) Hashtbl.t) =
  let rows = bookings db in
  let seats = Hashtbl.create 1024 and users = Hashtbl.create 1024 in
  List.iter
    (fun (u, f, s) ->
      expect t (not (Hashtbl.mem seats (f, s))) (fun () -> Printf.sprintf "seat %d/%d booked twice" f s);
      expect t (not (Hashtbl.mem users u)) (fun () -> Printf.sprintf "%s booked twice" u);
      Hashtbl.replace seats (f, s) ();
      Hashtbl.replace users u ();
      expect t
        (not (Database.mem_tuple db "Available" (Tuple.of_list [ Value.Int f; Value.Int s ])))
        (fun () -> Printf.sprintf "seat %d/%d is booked and still available" f s);
      expect t
        (Hashtbl.find_opt committed u = Some f)
        (fun () -> Printf.sprintf "%s holds seat %d/%d without a committed booking for it" u f s))
    rows;
  expect t
    (List.length rows = Hashtbl.length committed)
    (fun () ->
      Printf.sprintf "%d committed bookings, %d present after grounding" (Hashtbl.length committed)
        (List.length rows))
