type device = {
  name : string;
  base : Word.t;
  size : int;
  read32 : offset:int -> Word.t;
  write32 : offset:int -> Word.t -> unit;
}

type t = {
  ram : Bytes.t;
  mutable devices : device list;
  mutable write_fault : (addr:Word.t -> value:Word.t -> Word.t) option;
  mutable mmio_read_fault : (device:string -> addr:Word.t -> Word.t option) option;
}

let create ~size =
  { ram = Bytes.make size '\000'; devices = []; write_fault = None;
    mmio_read_fault = None }

let size t = Bytes.length t.ram
let set_write_fault t hook = t.write_fault <- hook
let set_mmio_read_fault t hook = t.mmio_read_fault <- hook

let faulted_write t ~addr ~value =
  match t.write_fault with
  | None -> value
  | Some hook -> hook ~addr ~value

let faulted_mmio_read t (d : device) ~addr ~offset =
  match t.mmio_read_fault with
  | None -> d.read32 ~offset
  | Some hook -> (
      match hook ~device:d.name ~addr with
      | Some garbage -> garbage
      | None -> d.read32 ~offset)

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let map_device t d =
  if d.base < 0 || d.size <= 0 then
    invalid_arg "Memory.map_device: bad window";
  match List.find_opt (overlaps d) t.devices with
  | Some other ->
      invalid_arg
        (Printf.sprintf "Memory.map_device: %s overlaps %s" d.name other.name)
  | None -> t.devices <- d :: t.devices

(* Consulted on every load and store: a closure-free scan, so a RAM
   access (no window covers it) allocates nothing. *)
let rec find_device addr = function
  | [] -> None
  | d :: rest ->
      if addr >= d.base && addr < d.base + d.size then Some d
      else find_device addr rest

let device_at t addr = find_device addr t.devices

let in_ram t addr len =
  addr >= 0 && len >= 0 && addr + len <= Bytes.length t.ram

let bounds_fail op addr =
  invalid_arg (Printf.sprintf "Memory.%s: address 0x%08X out of range" op addr)

let read8 t addr =
  match device_at t addr with
  | Some d ->
      let offset = (addr - d.base) land lnot 3 in
      let word = faulted_mmio_read t d ~addr ~offset in
      (word lsr (8 * (addr land 3))) land 0xFF
  | None ->
      if not (in_ram t addr 1) then bounds_fail "read8" addr;
      Char.code (Bytes.get t.ram addr)

let write8 t addr v =
  match device_at t addr with
  | Some d ->
      let offset = (addr - d.base) land lnot 3 in
      let old = d.read32 ~offset in
      let shift = 8 * (addr land 3) in
      let updated = old land lnot (0xFF lsl shift) lor ((v land 0xFF) lsl shift) in
      d.write32 ~offset (Word.of_int updated)
  | None ->
      if not (in_ram t addr 1) then bounds_fail "write8" addr;
      let v = faulted_write t ~addr ~value:(v land 0xFF) in
      Bytes.set t.ram addr (Char.chr (v land 0xFF))

let read32 t addr =
  match device_at t addr with
  | Some d ->
      if addr land 3 <> 0 then
        invalid_arg "Memory.read32: unaligned MMIO access";
      faulted_mmio_read t d ~addr ~offset:(addr - d.base)
  | None ->
      if not (in_ram t addr 4) then bounds_fail "read32" addr;
      Int32.to_int (Bytes.get_int32_le t.ram addr) land Word.max_value

let write32 t addr v =
  match device_at t addr with
  | Some d ->
      if addr land 3 <> 0 then
        invalid_arg "Memory.write32: unaligned MMIO access";
      d.write32 ~offset:(addr - d.base) v
  | None ->
      if not (in_ram t addr 4) then bounds_fail "write32" addr;
      let v = faulted_write t ~addr ~value:v in
      Bytes.set_int32_le t.ram addr (Int32.of_int v)

let blit_bytes t addr b =
  if not (in_ram t addr (Bytes.length b)) then bounds_fail "blit_bytes" addr;
  Bytes.blit b 0 t.ram addr (Bytes.length b)

let fetch t addr = Isa.decode_at t.ram addr

let read_bytes t addr len =
  if not (in_ram t addr len) then bounds_fail "read_bytes" addr;
  Bytes.sub t.ram addr len

let fill t addr len v =
  if not (in_ram t addr len) then bounds_fail "fill" addr;
  Bytes.fill t.ram addr len (Char.chr (v land 0xFF))
