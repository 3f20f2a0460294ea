type reg = int

type t =
  | Nop
  | Movi of reg * Word.t
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
  | Cmp of reg * reg
  | Cmpi of reg * Word.t
  | Ldw of reg * reg * Word.t
  | Stw of reg * Word.t * reg
  | Ldb of reg * reg * Word.t
  | Stb of reg * Word.t * reg
  | Jmp of Word.t
  | Jz of Word.t
  | Jnz of Word.t
  | Jlt of Word.t
  | Jge of Word.t
  | Jmpr of reg
  | Call of Word.t
  | Callr of reg
  | Ret
  | Push of reg
  | Pop of reg
  | Swi of int
  | Iret
  | Halt

let width = 8
let imm_field_offset = 4

(* Opcode assignments; stable because encoded binaries are hashed by the
   RTM and must be reproducible. *)
let opcode = function
  | Nop -> 0
  | Movi _ -> 1
  | Mov _ -> 2
  | Add _ -> 3
  | Addi _ -> 4
  | Sub _ -> 5
  | Mul _ -> 6
  | And _ -> 7
  | Or _ -> 8
  | Xor _ -> 9
  | Shl _ -> 10
  | Shr _ -> 11
  | Cmp _ -> 12
  | Cmpi _ -> 13
  | Ldw _ -> 14
  | Stw _ -> 15
  | Ldb _ -> 16
  | Stb _ -> 17
  | Jmp _ -> 18
  | Jz _ -> 19
  | Jnz _ -> 20
  | Jlt _ -> 21
  | Jge _ -> 22
  | Jmpr _ -> 23
  | Call _ -> 24
  | Callr _ -> 25
  | Ret -> 26
  | Push _ -> 27
  | Pop _ -> 28
  | Swi _ -> 29
  | Halt -> 30
  | Iret -> 31

let fields = function
  | Nop | Ret | Halt | Iret -> (0, 0, 0, 0)
  | Movi (rd, imm) -> (rd, 0, 0, imm)
  | Mov (rd, rs1) -> (rd, rs1, 0, 0)
  | Add (rd, rs1, rs2)
  | Sub (rd, rs1, rs2)
  | Mul (rd, rs1, rs2)
  | And (rd, rs1, rs2)
  | Or (rd, rs1, rs2)
  | Xor (rd, rs1, rs2) -> (rd, rs1, rs2, 0)
  | Addi (rd, rs1, imm) -> (rd, rs1, 0, imm)
  | Shl (rd, rs1, n) | Shr (rd, rs1, n) -> (rd, rs1, 0, n)
  | Cmp (rs1, rs2) -> (0, rs1, rs2, 0)
  | Cmpi (rs1, imm) -> (0, rs1, 0, imm)
  | Ldw (rd, rs1, imm) | Ldb (rd, rs1, imm) -> (rd, rs1, 0, imm)
  | Stw (rs1, imm, rs2) | Stb (rs1, imm, rs2) -> (0, rs1, rs2, imm)
  | Jmp imm | Jz imm | Jnz imm | Jlt imm | Jge imm | Call imm ->
      (0, 0, 0, imm)
  | Jmpr rs1 | Callr rs1 -> (0, rs1, 0, 0)
  | Push rs1 -> (0, rs1, 0, 0)
  | Pop rd -> (rd, 0, 0, 0)
  | Swi n -> (0, 0, 0, n)

let encode instr =
  let rd, rs1, rs2, imm = fields instr in
  let b = Bytes.make width '\000' in
  Bytes.set b 0 (Char.chr (opcode instr));
  Bytes.set b 1 (Char.chr (rd land 0xF));
  Bytes.set b 2 (Char.chr (rs1 land 0xF));
  Bytes.set b 3 (Char.chr (rs2 land 0xF));
  Bytes.set_int32_le b imm_field_offset (Int32.of_int imm);
  b

let decode_at b off =
  if off < 0 || off > Bytes.length b - width then
    invalid_arg "Isa.decode_at: out of range";
  let op = Bytes.get_uint8 b off in
  let rd = Bytes.get_uint8 b (off + 1) land 0xF in
  let rs1 = Bytes.get_uint8 b (off + 2) land 0xF in
  let rs2 = Bytes.get_uint8 b (off + 3) land 0xF in
  let imm =
    Int32.to_int (Bytes.get_int32_le b (off + imm_field_offset))
    land Word.max_value
  in
  match op with
  | 0 -> Nop
  | 1 -> Movi (rd, imm)
  | 2 -> Mov (rd, rs1)
  | 3 -> Add (rd, rs1, rs2)
  | 4 -> Addi (rd, rs1, imm)
  | 5 -> Sub (rd, rs1, rs2)
  | 6 -> Mul (rd, rs1, rs2)
  | 7 -> And (rd, rs1, rs2)
  | 8 -> Or (rd, rs1, rs2)
  | 9 -> Xor (rd, rs1, rs2)
  | 10 -> Shl (rd, rs1, imm)
  | 11 -> Shr (rd, rs1, imm)
  | 12 -> Cmp (rs1, rs2)
  | 13 -> Cmpi (rs1, imm)
  | 14 -> Ldw (rd, rs1, imm)
  | 15 -> Stw (rs1, imm, rs2)
  | 16 -> Ldb (rd, rs1, imm)
  | 17 -> Stb (rs1, imm, rs2)
  | 18 -> Jmp imm
  | 19 -> Jz imm
  | 20 -> Jnz imm
  | 21 -> Jlt imm
  | 22 -> Jge imm
  | 23 -> Jmpr rs1
  | 24 -> Call imm
  | 25 -> Callr rs1
  | 26 -> Ret
  | 27 -> Push rs1
  | 28 -> Pop rd
  | 29 -> Swi imm
  | 30 -> Halt
  | 31 -> Iret
  | n -> invalid_arg (Printf.sprintf "Isa.decode: bad opcode %d" n)

let decode b =
  if Bytes.length b <> width then invalid_arg "Isa.decode: wrong length";
  decode_at b 0

let cost = function
  | Nop -> 1
  | Movi _ | Mov _ -> 1
  | Add _ | Addi _ | Sub _ | And _ | Or _ | Xor _ | Shl _ | Shr _ -> 1
  | Mul _ -> 3
  | Cmp _ | Cmpi _ -> 1
  | Ldw _ | Ldb _ -> 2
  | Stw _ | Stb _ -> 2
  | Jmp _ | Jmpr _ -> 2
  | Jz _ | Jnz _ | Jlt _ | Jge _ -> 2
  | Call _ | Callr _ -> 3
  | Ret -> 3
  | Push _ | Pop _ -> 2
  | Swi _ -> 4
  | Iret -> 4
  | Halt -> 1

let pp ppf instr =
  let p fmt = Format.fprintf ppf fmt in
  match instr with
  | Nop -> p "nop"
  | Movi (rd, imm) -> p "movi r%d, %a" rd Word.pp imm
  | Mov (rd, rs1) -> p "mov r%d, r%d" rd rs1
  | Add (rd, a, b) -> p "add r%d, r%d, r%d" rd a b
  | Addi (rd, a, imm) -> p "addi r%d, r%d, %a" rd a Word.pp imm
  | Sub (rd, a, b) -> p "sub r%d, r%d, r%d" rd a b
  | Mul (rd, a, b) -> p "mul r%d, r%d, r%d" rd a b
  | And (rd, a, b) -> p "and r%d, r%d, r%d" rd a b
  | Or (rd, a, b) -> p "or r%d, r%d, r%d" rd a b
  | Xor (rd, a, b) -> p "xor r%d, r%d, r%d" rd a b
  | Shl (rd, a, n) -> p "shl r%d, r%d, %d" rd a n
  | Shr (rd, a, n) -> p "shr r%d, r%d, %d" rd a n
  | Cmp (a, b) -> p "cmp r%d, r%d" a b
  | Cmpi (a, imm) -> p "cmpi r%d, %a" a Word.pp imm
  | Ldw (rd, a, imm) -> p "ldw r%d, [r%d+%a]" rd a Word.pp imm
  | Stw (a, imm, b) -> p "stw [r%d+%a], r%d" a Word.pp imm b
  | Ldb (rd, a, imm) -> p "ldb r%d, [r%d+%a]" rd a Word.pp imm
  | Stb (a, imm, b) -> p "stb [r%d+%a], r%d" a Word.pp imm b
  | Jmp imm -> p "jmp %a" Word.pp imm
  | Jz imm -> p "jz %a" Word.pp imm
  | Jnz imm -> p "jnz %a" Word.pp imm
  | Jlt imm -> p "jlt %a" Word.pp imm
  | Jge imm -> p "jge %a" Word.pp imm
  | Jmpr r -> p "jmpr r%d" r
  | Call imm -> p "call %a" Word.pp imm
  | Callr r -> p "callr r%d" r
  | Ret -> p "ret"
  | Push r -> p "push r%d" r
  | Pop r -> p "pop r%d" r
  | Swi n -> p "swi %d" n
  | Iret -> p "iret"
  | Halt -> p "halt"
