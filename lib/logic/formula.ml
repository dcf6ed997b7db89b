(* Composed-body formulas (Section 3.2.1).

   The grammar is negation-normal by construction: the only negations the
   composition theorem produces are negated unification predicates, which
   are disjunctions of disequalities, plus negated atoms used for
   strict-insert checking.  Smart constructors simplify eagerly, keeping
   composed bodies small as pending transactions accumulate. *)

type t =
  | True
  | False
  | Atom of Atom.t (* must ground on the extensional database *)
  | Not_atom of Atom.t (* must NOT hold in the extensional database *)
  | Key_free of Atom.t (* no extensional row may share this tuple's key *)
  | Eq of Term.t * Term.t
  | Neq of Term.t * Term.t
  | Lt of Term.t * Term.t (* strict order on Value.compare *)
  | Le of Term.t * Term.t
  | And of t list
  | Or of t list

let tru = True
let fls = False
let atom a = Atom a
let not_atom a = Not_atom a
let key_free a = Key_free a

let eq t1 t2 =
  if Term.equal t1 t2 then True
  else
    match t1, t2 with
    | Term.C a, Term.C b -> if Relational.Value.equal a b then True else False
    | _ -> Eq (t1, t2)

let neq t1 t2 =
  if Term.equal t1 t2 then False
  else
    match t1, t2 with
    | Term.C a, Term.C b -> if Relational.Value.equal a b then False else True
    | _ -> Neq (t1, t2)

let lt t1 t2 =
  if Term.equal t1 t2 then False
  else
    match t1, t2 with
    | Term.C a, Term.C b -> if Relational.Value.compare a b < 0 then True else False
    | _ -> Lt (t1, t2)

let le t1 t2 =
  if Term.equal t1 t2 then True
  else
    match t1, t2 with
    | Term.C a, Term.C b -> if Relational.Value.compare a b <= 0 then True else False
    | _ -> Le (t1, t2)

let and_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> flatten acc rest
    | False :: _ -> None
    | And gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> flatten acc rest
    | True :: _ -> None
    | Or gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

(* Negation stays within the grammar by De Morgan and atom duals. *)
let rec negate = function
  | True -> False
  | False -> True
  | Atom a -> Not_atom a
  | Not_atom a -> Atom a
  | Key_free a ->
    invalid_arg
      (Printf.sprintf "Formula.negate: Key_free %s has no dual in this fragment"
         (Atom.to_string a))
  | Eq (a, b) -> neq a b
  | Neq (a, b) -> eq a b
  | Lt (a, b) -> le b a
  | Le (a, b) -> lt b a
  | And fs -> or_ (List.map negate fs)
  | Or fs -> and_ (List.map negate fs)

let of_equations eqs = and_ (List.map (fun (a, b) -> eq a b) eqs)

let rec vars = function
  | True | False -> Term.Var_set.empty
  | Atom a | Not_atom a | Key_free a -> Atom.vars a
  | Eq (a, b) | Neq (a, b) | Lt (a, b) | Le (a, b) ->
    let add acc = function
      | Term.V v -> Term.Var_set.add v acc
      | Term.C _ -> acc
    in
    add (add Term.Var_set.empty a) b
  | And fs | Or fs ->
    List.fold_left (fun acc f -> Term.Var_set.union acc (vars f)) Term.Var_set.empty fs

(* Map over a list, reusing the original spine (and the list itself) when
   [f] returns every element physically unchanged. *)
let rec map_sharing f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x in
    let rest' = map_sharing f rest in
    if x' == x && rest' == rest then l else x' :: rest'

(* Physical-equality fast paths: a substitution that binds none of a
   subformula's variables returns that subformula unchanged, so applying a
   witness extension to a large composed body only rebuilds the clauses it
   actually touches. *)
let rec apply_subst s f =
  match f with
  | True | False -> f
  | Atom a ->
    let a' = Subst.apply_atom s a in
    if a' == a then f else atom a'
  | Not_atom a ->
    let a' = Subst.apply_atom s a in
    if a' == a then f else not_atom a'
  | Key_free a ->
    let a' = Subst.apply_atom s a in
    if a' == a then f else key_free a'
  | Eq (a, b) ->
    let a' = Subst.apply_term s a and b' = Subst.apply_term s b in
    if a' == a && b' == b then f else eq a' b'
  | Neq (a, b) ->
    let a' = Subst.apply_term s a and b' = Subst.apply_term s b in
    if a' == a && b' == b then f else neq a' b'
  | Lt (a, b) ->
    let a' = Subst.apply_term s a and b' = Subst.apply_term s b in
    if a' == a && b' == b then f else lt a' b'
  | Le (a, b) ->
    let a' = Subst.apply_term s a and b' = Subst.apply_term s b in
    if a' == a && b' == b then f else le a' b'
  | And fs ->
    let fs' = map_sharing (apply_subst s) fs in
    if fs' == fs then f else and_ fs'
  | Or fs ->
    let fs' = map_sharing (apply_subst s) fs in
    if fs' == fs then f else or_ fs'

(* Top-level conjuncts: the clause list of a composed body.  [and_] of the
   result rebuilds the formula, and [True] is the empty conjunction. *)
let conjuncts = function
  | True -> []
  | And fs -> fs
  | f -> [ f ]

(* -- Hash-consing --------------------------------------------------------- *)

(* Structurally equal subformulas collapse onto one shared node, so later
   [apply_subst]/[map_sharing] passes hit their physical-equality fast
   paths and repeated clauses cost one allocation.  The table is
   per-domain ([Domain.DLS]): engines on different actor domains each
   intern into their own table, so no synchronisation is needed — interning is
   semantically the identity, only sharing differs across domains. *)
let intern_table_key : (t, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

(* Drop the table rather than grow without bound; correctness is
   unaffected, only sharing resets. *)
let intern_table_max = 1 lsl 16

let intern f =
  let tbl = Domain.DLS.get intern_table_key in
  if Hashtbl.length tbl > intern_table_max then Hashtbl.reset tbl;
  let rec go f =
    let node =
      match f with
      | True | False | Atom _ | Not_atom _ | Key_free _ | Eq _ | Neq _ | Lt _ | Le _ -> f
      | And fs ->
        let fs' = map_sharing go fs in
        if fs' == fs then f else And fs'
      | Or fs ->
        let fs' = map_sharing go fs in
        if fs' == fs then f else Or fs'
    in
    match node with
    | True | False -> node
    | _ ->
      (match Hashtbl.find_opt tbl node with
       | Some canonical -> canonical
       | None ->
         Hashtbl.add tbl node node;
         node)
  in
  go f

(* -- Statistics (drive the adaptive grounding policy and benches) --------- *)

type stats = {
  atoms : int;
  negative_atoms : int;
  equalities : int;
  disequalities : int;
  or_nodes : int;
  or_branches : int;
  variables : int;
}

let stats f =
  let atoms = ref 0
  and negative_atoms = ref 0
  and equalities = ref 0
  and disequalities = ref 0
  and or_nodes = ref 0
  and or_branches = ref 0 in
  let rec go = function
    | True | False -> ()
    | Atom _ -> incr atoms
    | Not_atom _ | Key_free _ -> incr negative_atoms
    | Eq _ -> incr equalities
    | Neq _ | Lt _ | Le _ -> incr disequalities
    | And fs -> List.iter go fs
    | Or fs ->
      incr or_nodes;
      or_branches := !or_branches + List.length fs;
      List.iter go fs
  in
  go f;
  {
    atoms = !atoms;
    negative_atoms = !negative_atoms;
    equalities = !equalities;
    disequalities = !disequalities;
    or_nodes = !or_nodes;
    or_branches = !or_branches;
    variables = Term.Var_set.cardinal (vars f);
  }

(* -- Ground evaluation (the semantics; reference for the solver) ---------- *)

exception Unbound of Term.var

let eval_term valuation = function
  | Term.C v -> v
  | Term.V v ->
    (match valuation v with
     | Some value -> value
     | None -> raise (Unbound v))

(* A relation with no table is empty: a ground atom over it is false, and
   its negation and key-freedom hold. *)
let mem_tuple db rel tuple =
  match Relational.Database.find_table db rel with
  | Some table -> Relational.Table.mem table tuple
  | None -> false

let key_occupied db rel tuple =
  match Relational.Database.find_table db rel with
  | Some table ->
    let key = Relational.Schema.key_of_tuple (Relational.Table.schema table) tuple in
    Option.is_some (Relational.Table.find_by_key table key)
  | None -> false

let rec eval db valuation = function
  | True -> true
  | False -> false
  | Atom a -> mem_tuple db a.Atom.rel (Array.map (eval_term valuation) a.Atom.args)
  | Not_atom a -> not (mem_tuple db a.Atom.rel (Array.map (eval_term valuation) a.Atom.args))
  | Key_free a -> not (key_occupied db a.Atom.rel (Array.map (eval_term valuation) a.Atom.args))
  | Eq (a, b) -> Relational.Value.equal (eval_term valuation a) (eval_term valuation b)
  | Neq (a, b) -> not (Relational.Value.equal (eval_term valuation a) (eval_term valuation b))
  | Lt (a, b) -> Relational.Value.compare (eval_term valuation a) (eval_term valuation b) < 0
  | Le (a, b) -> Relational.Value.compare (eval_term valuation a) (eval_term valuation b) <= 0
  | And fs -> List.for_all (eval db valuation) fs
  | Or fs -> List.exists (eval db valuation) fs

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Atom a -> Atom.pp fmt a
  | Not_atom a -> Format.fprintf fmt "!%a" Atom.pp a
  | Key_free a -> Format.fprintf fmt "keyfree %a" Atom.pp a
  | Eq (a, b) -> Format.fprintf fmt "%a=%a" Term.pp a Term.pp b
  | Neq (a, b) -> Format.fprintf fmt "%a<>%a" Term.pp a Term.pp b
  | Lt (a, b) -> Format.fprintf fmt "%a<%a" Term.pp a Term.pp b
  | Le (a, b) -> Format.fprintf fmt "%a<=%a" Term.pp a Term.pp b
  | And fs ->
    Format.fprintf fmt "(@[<hov>%a@])"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ∧@ ") pp)
      fs
  | Or fs ->
    Format.fprintf fmt "(@[<hov>%a@])"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ∨@ ") pp)
      fs

let to_string f = Format.asprintf "%a" pp f
