(** Flat physical memory with memory-mapped I/O, as on Siskiyou Peak.

    The simulated core uses a flat physical addressing model and talks to
    peripherals through MMIO windows.  Reads and writes that hit a
    registered MMIO window are dispatched to the owning device; everything
    else is backed by RAM.  Words are little-endian.

    Raw accessors here perform {e no} protection checks; access control is
    enforced by the CPU's protection hook before it touches memory. *)

type t

type device = {
  name : string;
  base : Word.t;
  size : int;
  read32 : offset:int -> Word.t;
  write32 : offset:int -> Word.t -> unit;
}
(** An MMIO device occupying [\[base, base+size)].  Offsets passed to the
    handlers are word-aligned offsets from [base]. *)

val create : size:int -> t
(** [create ~size] allocates [size] bytes of zeroed RAM. *)

(** {2 Fault-injection hooks}

    The fault subsystem ({!Tytan_fault}) models hardware-level faults by
    intercepting accesses at the memory controller.  Both hooks are [None]
    by default and cost nothing when unset. *)

val set_write_fault : t -> (addr:Word.t -> value:Word.t -> Word.t) option -> unit
(** Corruption hook applied to every RAM store: the value actually written
    is the hook's return (faulty cells, disturbed writes).  Byte stores see
    the byte in the low 8 bits; word stores see the whole word.  MMIO
    writes are not affected. *)

val set_mmio_read_fault :
  t -> (device:string -> addr:Word.t -> Word.t option) option -> unit
(** Transient-MMIO-failure hook consulted on every device read; [Some v]
    supplants the device's answer with garbage [v] (a glitched bus cycle),
    [None] lets the read through. *)

val size : t -> int

val map_device : t -> device -> unit
(** Register an MMIO window.  @raise Invalid_argument if it overlaps an
    existing window or falls outside the address space. *)

val device_at : t -> Word.t -> device option
(** The device whose window covers the given address, if any. *)

val read8 : t -> Word.t -> int
val write8 : t -> Word.t -> int -> unit

val read32 : t -> Word.t -> Word.t
(** Little-endian 32-bit load.  MMIO windows require word alignment. *)

val write32 : t -> Word.t -> Word.t -> unit

val blit_bytes : t -> Word.t -> bytes -> unit
(** [blit_bytes mem addr b] copies [b] into RAM at [addr]. *)

val fetch : t -> Word.t -> Isa.t
(** [fetch mem addr] decodes the instruction at [addr] in place from RAM,
    copying nothing; MMIO windows are not consulted.  @raise
    Invalid_argument if its {!Isa.width} bytes are not all in RAM, or on
    a bad opcode. *)

val read_bytes : t -> Word.t -> int -> bytes
(** [read_bytes mem addr len] copies [len] bytes of RAM starting at
    [addr]. *)

val fill : t -> Word.t -> int -> int -> unit
(** [fill mem addr len v] sets [len] bytes to the byte value [v]. *)
