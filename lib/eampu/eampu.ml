open Tytan_machine

type rule =
  | Exec of {
      region : Region.t;
      entry : Word.t option;
    }
  | Grant of {
      code : Region.t;
      data : Region.t;
      perm : Perm.t;
    }

(* The check path reads [table], a flat view of [slots] with [stride]
   ints per slot:
     [kind; base_a; last_a; base_b; last_b; extra]
   An [Exec] slot keeps its region in [a] and its entry point (or -1) in
   [extra]; a [Grant] slot keeps its code region in [a], its data region
   in [b] and its permission bits in [extra].  Every slot write updates
   the slot's row before returning, so a reconfiguration governs the very
   next access. *)
type t = {
  slots : rule option array;
  table : int array;
  mutable enabled : bool;
}

let stride = 6
let kind_empty = 0
let kind_exec = 1
let kind_grant = 2
let perm_read = 1
let perm_write = 2
let no_entry = -1
let default_slot_count = 18

let create ?(slots = default_slot_count) () =
  if slots <= 0 then invalid_arg "Eampu.create: need at least one slot";
  {
    slots = Array.make slots None;
    table = Array.make (slots * stride) kind_empty;
    enabled = false;
  }

let slot_count t = Array.length t.slots

let check_index t i =
  if i < 0 || i >= Array.length t.slots then
    invalid_arg (Printf.sprintf "Eampu: slot %d out of range" i)

let slot t i =
  check_index t i;
  t.slots.(i)

let write_row tbl row kind a b extra =
  tbl.(row) <- kind;
  tbl.(row + 1) <- Region.base a;
  tbl.(row + 2) <- Region.last a;
  tbl.(row + 3) <- Region.base b;
  tbl.(row + 4) <- Region.last b;
  tbl.(row + 5) <- extra

let compile_slot t i rule =
  let row = i * stride in
  match rule with
  | None -> t.table.(row) <- kind_empty
  | Some (Exec { region; entry }) ->
      write_row t.table row kind_exec region region
        (Option.value entry ~default:no_entry)
  | Some (Grant { code; data; perm }) ->
      write_row t.table row kind_grant code data
        ((if perm.Perm.read then perm_read else 0)
        lor if perm.Perm.write then perm_write else 0)

let set_slot t i rule =
  check_index t i;
  t.slots.(i) <- rule;
  compile_slot t i rule

let clear_slot t i = set_slot t i None
let enabled t = t.enabled
let enable t = t.enabled <- true

let iter_slots t f =
  Array.iteri (fun i -> function Some r -> f i r | None -> ()) t.slots

let used_slots t =
  Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 t.slots

let first_free_slot t =
  let n = Array.length t.slots in
  let rec scan i =
    if i >= n then None else if t.slots.(i) = None then Some i else scan (i + 1)
  in
  scan 0

let conflicts t candidate =
  (* Only executable regions must be pairwise disjoint: each belongs to
     exactly one protection domain.  Grants may reference any region —
     several principals legitimately hold grants over one task's memory
     (the task itself, the Int Mux, the IPC proxy, the RTM). *)
  let conflict existing =
    match (candidate, existing) with
    | Exec { region = a; _ }, Exec { region = b; _ } -> Region.overlaps a b
    | Grant _, Exec _ | Exec _, Grant _ | Grant _, Grant _ -> false
  in
  let found = ref [] in
  iter_slots t (fun i r -> if conflict r then found := (i, r) :: !found);
  List.rev !found

(* The check path: plain int compares over [table], no allocation.  Only
   a denial reads [slots], to format its reason. *)

(* Row offset of the first [Exec] slot covering [addr], or -1. *)
let rec exec_row tbl addr row =
  if row >= Array.length tbl then -1
  else if
    tbl.(row) = kind_exec && addr >= tbl.(row + 1) && addr <= tbl.(row + 2)
  then row
  else exec_row tbl addr (row + stride)

let deny_entry t ~eip ~addr ~size row =
  match t.slots.(row / stride) with
  | Some (Exec { region; entry = Some entry }) ->
      Access.violation ~eip ~addr ~size ~kind:Access.Execute
        (Format.asprintf "region %a may only be entered at its entry point %a"
           Region.pp region Word.pp entry)
  | Some (Exec { entry = None; _ }) | Some (Grant _) | None ->
      assert false

let check_execute t ~eip ~addr ~size =
  let tbl = t.table in
  let row = exec_row tbl addr 0 in
  if row < 0 then
    Access.violation ~eip ~addr ~size ~kind:Access.Execute
      "no executable region covers this address"
  else if eip >= tbl.(row + 1) && eip <= tbl.(row + 2) then
    (* Sequential flow or internal jump within the same region. *)
    ()
  else
    let entry = tbl.(row + 5) in
    if entry <> no_entry && addr <> entry then deny_entry t ~eip ~addr ~size row

(* Whether a data access to [addr, last] from [eip] is denied: some rule
   protects the range and none grants it.  A [Grant] protects its data
   region and grants when its code region holds [eip], the data region
   contains the whole range and the permission bit is set.  An [Exec]
   region protects itself and grants reads from its own code (code
   regions are never writable; the RTM gets an explicit [Grant] when
   measuring).  A grant ends the scan. *)
let rec data_denied tbl ~eip ~addr ~last ~bit ~protected_ row =
  if row >= Array.length tbl then protected_
  else
    let k = tbl.(row) in
    if k = kind_grant && addr <= tbl.(row + 4) && last >= tbl.(row + 3) then
      if
        eip >= tbl.(row + 1)
        && eip <= tbl.(row + 2)
        && addr >= tbl.(row + 3)
        && last <= tbl.(row + 4)
        && tbl.(row + 5) land bit <> 0
      then false
      else data_denied tbl ~eip ~addr ~last ~bit ~protected_:true (row + stride)
    else if k = kind_exec && addr <= tbl.(row + 2) && last >= tbl.(row + 1) then
      if bit = perm_read && eip >= tbl.(row + 1) && eip <= tbl.(row + 2) then
        false
      else data_denied tbl ~eip ~addr ~last ~bit ~protected_:true (row + stride)
    else data_denied tbl ~eip ~addr ~last ~bit ~protected_ (row + stride)

let check_data t ~eip ~addr ~size ~kind =
  let bit =
    match kind with
    | Access.Read -> perm_read
    | Access.Write -> perm_write
    | Access.Execute -> 0
  in
  (* An empty range touches no region, so no rule protects it. *)
  if
    size > 0
    && data_denied t.table ~eip ~addr ~last:(addr + size - 1) ~bit
         ~protected_:false 0
  then Access.violation ~eip ~addr ~size ~kind "no EA-MPU rule grants this access"

let check t ~eip ~addr ~size ~kind =
  if t.enabled then
    match kind with
    | Access.Execute -> check_execute t ~eip ~addr ~size
    | Access.Read | Access.Write -> check_data t ~eip ~addr ~size ~kind

let pp ppf t =
  Format.fprintf ppf "@[<v>EA-MPU (%s, %d/%d slots used)"
    (if t.enabled then "enabled" else "disabled")
    (used_slots t) (slot_count t);
  iter_slots t (fun i rule ->
      match rule with
      | Exec { region; entry } ->
          Format.fprintf ppf "@ %2d: exec %a%a" i Region.pp region
            (fun ppf -> function
              | None -> ()
              | Some e -> Format.fprintf ppf " entry=%a" Word.pp e)
            entry
      | Grant { code; data; perm } ->
          Format.fprintf ppf "@ %2d: %a by %a on %a" i Perm.pp perm Region.pp
            code Region.pp data);
  Format.fprintf ppf "@]"
