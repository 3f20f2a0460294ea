(** Instruction set of the simulated 32-bit core.

    A small fixed-width RISC-like ISA: every instruction occupies exactly
    {!width} bytes, encoded as [opcode, rd, rs1, rs2, imm32(LE)].  This is
    deliberately simple — what matters for TyTAN is that code is real bytes
    in simulated memory that can be fetched (subject to EA-MPU execute
    checks), measured by the RTM, and patched by the relocating loader.

    Control flow ([Jmp], [Jz], …, [Call]) is PC-relative: the immediate is
    a signed displacement from the {e following} instruction.  Absolute
    code/data addresses therefore appear only in [Movi] immediates and in
    data words, so the relocation table of a binary is a short list of
    immediate-field offsets (see the TELF library) — matching the paper's
    per-task relocation counts of a few entries. *)

type reg = int
(** Register index in [0, 15]. *)

type t =
  | Nop
  | Movi of reg * Word.t  (** rd := imm *)
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Addi of reg * reg * Word.t
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Shl of reg * reg * int
  | Shr of reg * reg * int
  | Cmp of reg * reg  (** set flags from rs1 - rs2 *)
  | Cmpi of reg * Word.t
  | Ldw of reg * reg * Word.t  (** rd := mem32[rs1 + imm] *)
  | Stw of reg * Word.t * reg  (** mem32[rs1 + imm] := rs2 *)
  | Ldb of reg * reg * Word.t
  | Stb of reg * Word.t * reg
  | Jmp of Word.t  (** PC-relative signed displacement *)
  | Jz of Word.t
  | Jnz of Word.t
  | Jlt of Word.t
  | Jge of Word.t
  | Jmpr of reg  (** absolute jump through a register *)
  | Call of Word.t  (** lr := return address; PC-relative jump *)
  | Callr of reg
  | Ret
  | Push of reg
  | Pop of reg
  | Swi of int  (** software interrupt, vector argument in [0, 15] *)
  | Iret  (** pop EIP and EFLAGS — the dedicated return-from-interrupt
              instruction used by entry routines to resume a restored
              context *)
  | Halt

val width : int
(** Encoded instruction size in bytes (8). *)

val encode : t -> bytes
(** Fixed-width encoding. *)

val decode : bytes -> t
(** Decode {!width} bytes.  @raise Invalid_argument on a bad opcode. *)

val decode_at : bytes -> int -> t
(** [decode_at b off] decodes the {!width} bytes of [b] starting at [off]
    in place, without copying them.  @raise Invalid_argument if they do
    not all lie inside [b], or on a bad opcode. *)

val cost : t -> int
(** Cycle cost charged when the instruction executes (memory operations
    and taken control transfers cost more than ALU operations, in line
    with a simple in-order embedded core). *)

val imm_field_offset : int
(** Byte offset of the 32-bit immediate inside an encoded instruction —
    the only place an absolute address can live, hence the relocation
    granule. *)

val pp : Format.formatter -> t -> unit
