type status =
  | Running
  | Halted

type check =
  eip:Word.t -> addr:Word.t -> size:int -> kind:Access.kind -> unit

type branch_kind =
  | Direct_jump
  | Cond_taken
  | Indirect_jump
  | Direct_call
  | Indirect_call
  | Return
  | Swi_entry
  | Iret_return

let branch_kind_code = function
  | Direct_jump -> 0
  | Cond_taken -> 1
  | Indirect_jump -> 2
  | Direct_call -> 3
  | Indirect_call -> 4
  | Return -> 5
  | Swi_entry -> 6
  | Iret_return -> 7

let branch_kind_of_code = function
  | 0 -> Some Direct_jump
  | 1 -> Some Cond_taken
  | 2 -> Some Indirect_jump
  | 3 -> Some Direct_call
  | 4 -> Some Indirect_call
  | 5 -> Some Return
  | 6 -> Some Swi_entry
  | 7 -> Some Iret_return
  | _ -> None

let pp_branch_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Direct_jump -> "jmp"
    | Cond_taken -> "b.taken"
    | Indirect_jump -> "jmpr"
    | Direct_call -> "call"
    | Indirect_call -> "callr"
    | Return -> "ret"
    | Swi_entry -> "swi"
    | Iret_return -> "iret")

type branch_hook = src:Word.t -> dst:Word.t -> kind:branch_kind -> unit

type t = {
  mem : Memory.t;
  regs : Regfile.t;
  clock : Cycles.t;
  engine : Exception_engine.t;
  mutable check : check;
  mutable fault_handler : (Access.violation -> unit) option;
  mutable halted : bool;
  mutable firmware_eip : Word.t option;
  mutable last_eip : Word.t;
  mutable resume_grant : Word.t option;
  mutable on_branch : branch_hook option;
  mutable retired : int;
}

let allow_all ~eip:_ ~addr:_ ~size:_ ~kind:_ = ()

let create mem clock engine =
  {
    mem;
    regs = Regfile.create ();
    clock;
    engine;
    check = allow_all;
    fault_handler = None;
    halted = false;
    firmware_eip = None;
    last_eip = 0;
    resume_grant = None;
    on_branch = None;
    retired = 0;
  }

let set_on_branch t f = t.on_branch <- Some f
let clear_on_branch t = t.on_branch <- None
let branch_hook_installed t = Option.is_some t.on_branch

let instructions_retired t = t.retired
let mem t = t.mem
let regs t = t.regs
let clock t = t.clock
let engine t = t.engine
let set_check t check = t.check <- check
let set_fault_handler t f = t.fault_handler <- Some f
let halted t = t.halted
let halt t = t.halted <- true
let unhalt t = t.halted <- false

let current_code_eip t =
  match t.firmware_eip with
  | Some eip -> eip
  | None -> Regfile.eip t.regs

let checked t addr size kind =
  t.check ~eip:(current_code_eip t) ~addr ~size ~kind

let load32 t addr =
  checked t addr 4 Access.Read;
  Memory.read32 t.mem addr

let store32 t addr v =
  checked t addr 4 Access.Write;
  Memory.write32 t.mem addr v

let load8 t addr =
  checked t addr 1 Access.Read;
  Memory.read8 t.mem addr

let store8 t addr v =
  checked t addr 1 Access.Write;
  Memory.write8 t.mem addr v

let load_bytes t addr len =
  checked t addr len Access.Read;
  Memory.read_bytes t.mem addr len

let store_bytes t addr b =
  checked t addr (Bytes.length b) Access.Write;
  Memory.blit_bytes t.mem addr b

let with_firmware t ~eip f =
  let saved = t.firmware_eip in
  t.firmware_eip <- Some eip;
  Fun.protect ~finally:(fun () -> t.firmware_eip <- saved) f

let push_word t v =
  let sp = Word.sub (Regfile.get t.regs Regfile.sp) 4 in
  Regfile.set t.regs Regfile.sp sp;
  store32 t sp v

let pop_word t =
  let sp = Regfile.get t.regs Regfile.sp in
  let v = load32 t sp in
  Regfile.set t.regs Regfile.sp (Word.add sp 4);
  v

(* Hardware exception entry: the exception engine itself saves EIP and
   EFLAGS to the interrupted stack; these pushes are hardware-originated
   and bypass the protection hook (matching the paper: the engine is
   hardware, only the remaining registers are software-saved). *)
let raw_push t v =
  let sp = Word.sub (Regfile.get t.regs Regfile.sp) 4 in
  Regfile.set t.regs Regfile.sp sp;
  Memory.write32 t.mem sp v

let enter_vector t n ~origin =
  Exception_engine.set_origin t.engine origin;
  Cycles.charge t.clock Exception_engine.entry_cost;
  raw_push t (Regfile.eflags t.regs);
  raw_push t (Regfile.eip t.regs);
  Regfile.set_interrupts t.regs false;
  let handler = Exception_engine.vector t.engine n in
  match Exception_engine.firmware_handler t.engine handler with
  | Some f -> f ()
  | None -> Regfile.set_eip t.regs handler

let grant_resume t addr = t.resume_grant <- Some addr

let interrupt_return t =
  let eip = pop_word t in
  let eflags = pop_word t in
  Regfile.set_eip t.regs eip;
  Regfile.set_eflags t.regs eflags;
  grant_resume t eip

let service_pending t =
  if Regfile.interrupts_enabled t.regs then
    match Exception_engine.pending_irq t.engine with
    | None -> ()
    | Some line ->
        Exception_engine.ack_irq t.engine line;
        enter_vector t line ~origin:(Regfile.eip t.regs)

let set_flags_from t result =
  Regfile.set_zero t.regs (result = 0);
  Regfile.set_negative t.regs (Word.to_signed result < 0)

(* The disabled path must stay free: one immediate field match, no
   closure, no cycles.  Control-flow tracing attaches here (lib/cfa). *)
let[@inline] notify t ~src ~dst kind =
  match t.on_branch with None -> () | Some f -> f ~src ~dst ~kind

(* Direct calls only: [execute] runs once per instruction, and a local
   closure or partial application here would allocate every time. *)
let get = Regfile.get
let set = Regfile.set

let relative next displacement =
  Word.add next (Word.of_signed (Word.to_signed displacement))

let execute t pc instr =
  let r = t.regs in
  let next = Word.add pc Isa.width in
  Regfile.set_eip r next;
  match instr with
  | Isa.Nop -> ()
  | Isa.Movi (rd, imm) -> set r rd imm
  | Isa.Mov (rd, rs1) -> set r rd (get r rs1)
  | Isa.Add (rd, a, b) ->
      let v = Word.add (get r a) (get r b) in
      set r rd v;
      set_flags_from t v
  | Isa.Addi (rd, a, imm) ->
      let v = Word.add (get r a) imm in
      set r rd v;
      set_flags_from t v
  | Isa.Sub (rd, a, b) ->
      let v = Word.sub (get r a) (get r b) in
      set r rd v;
      set_flags_from t v
  | Isa.Mul (rd, a, b) ->
      let v = Word.mul (get r a) (get r b) in
      set r rd v;
      set_flags_from t v
  | Isa.And (rd, a, b) -> set r rd (Word.logand (get r a) (get r b))
  | Isa.Or (rd, a, b) -> set r rd (Word.logor (get r a) (get r b))
  | Isa.Xor (rd, a, b) -> set r rd (Word.logxor (get r a) (get r b))
  | Isa.Shl (rd, a, n) -> set r rd (Word.shift_left (get r a) n)
  | Isa.Shr (rd, a, n) -> set r rd (Word.shift_right_logical (get r a) n)
  | Isa.Cmp (a, b) ->
      let v = Word.sub (get r a) (get r b) in
      set_flags_from t v;
      Regfile.set_carry r (get r a < get r b)
  | Isa.Cmpi (a, imm) ->
      let v = Word.sub (get r a) imm in
      set_flags_from t v;
      Regfile.set_carry r (get r a < imm)
  | Isa.Ldw (rd, a, imm) -> set r rd (load32 t (Word.add (get r a) imm))
  | Isa.Stw (a, imm, b) -> store32 t (Word.add (get r a) imm) (get r b)
  | Isa.Ldb (rd, a, imm) -> set r rd (load8 t (Word.add (get r a) imm))
  | Isa.Stb (a, imm, b) -> store8 t (Word.add (get r a) imm) (get r b land 0xFF)
  | Isa.Jmp d ->
      let dst = relative next d in
      Regfile.set_eip r dst;
      notify t ~src:pc ~dst Direct_jump
  | Isa.Jz d ->
      if Regfile.zero_flag r then begin
        let dst = relative next d in
        Regfile.set_eip r dst;
        notify t ~src:pc ~dst Cond_taken
      end
  | Isa.Jnz d ->
      if not (Regfile.zero_flag r) then begin
        let dst = relative next d in
        Regfile.set_eip r dst;
        notify t ~src:pc ~dst Cond_taken
      end
  | Isa.Jlt d ->
      if Regfile.negative_flag r then begin
        let dst = relative next d in
        Regfile.set_eip r dst;
        notify t ~src:pc ~dst Cond_taken
      end
  | Isa.Jge d ->
      if not (Regfile.negative_flag r) then begin
        let dst = relative next d in
        Regfile.set_eip r dst;
        notify t ~src:pc ~dst Cond_taken
      end
  | Isa.Jmpr a ->
      let dst = get r a in
      Regfile.set_eip r dst;
      notify t ~src:pc ~dst Indirect_jump
  | Isa.Call d ->
      set r Regfile.lr next;
      let dst = relative next d in
      Regfile.set_eip r dst;
      notify t ~src:pc ~dst Direct_call
  | Isa.Callr a ->
      set r Regfile.lr next;
      let dst = get r a in
      Regfile.set_eip r dst;
      notify t ~src:pc ~dst Indirect_call
  | Isa.Ret ->
      let dst = get r Regfile.lr in
      Regfile.set_eip r dst;
      notify t ~src:pc ~dst Return
  | Isa.Push a -> push_word t (get r a)
  | Isa.Pop rd -> set r rd (pop_word t)
  | Isa.Swi n ->
      (* dst is the SWI number, not an address: which service was asked
         for is exactly what a control-flow log needs to record. *)
      notify t ~src:pc ~dst:n Swi_entry;
      enter_vector t (Exception_engine.swi_vector_base + n) ~origin:pc
  | Isa.Iret ->
      interrupt_return t;
      notify t ~src:pc ~dst:(Regfile.eip r) Iret_return
  | Isa.Halt -> t.halted <- true

let step t =
  if t.halted then Halted
  else begin
    (try
       service_pending t;
       if not t.halted then begin
         let pc = Regfile.eip t.regs in
         (match t.resume_grant with
         | Some granted when Word.equal granted pc -> t.resume_grant <- None
         | Some _ | None ->
             t.check ~eip:t.last_eip ~addr:pc ~size:Isa.width
               ~kind:Access.Execute);
         (* An undecodable word (e.g. a bit-flipped instruction) is an
            illegal-opcode fault, not a simulator crash: deliver it through
            the same path as a protection violation so the OS can contain
            the faulting task. *)
         let instr =
           try Memory.fetch t.mem pc
           with Invalid_argument _ ->
             Access.violation ~eip:pc ~addr:pc ~size:Isa.width
               ~kind:Access.Execute "illegal opcode"
         in
         Cycles.charge t.clock (Isa.cost instr);
         t.last_eip <- pc;
         t.retired <- t.retired + 1;
         execute t pc instr
       end
     with Access.Violation v -> (
       match t.fault_handler with
       | Some handler -> handler v
       | None -> raise (Access.Violation v)));
    if t.halted then Halted else Running
  end

let run t ~until_cycles ~poll =
  let rec loop () =
    if t.halted then Halted
    else if Cycles.now t.clock >= until_cycles then Running
    else begin
      poll ();
      match step t with
      | Halted -> Halted
      | Running -> loop ()
    end
  in
  loop ()
