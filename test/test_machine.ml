(* Unit tests for the machine simulator: words, memory, registers, ISA,
   assembler, CPU execution, exceptions and devices. *)

open Tytan_machine

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Word ---------------------------------------------------------------- *)

let word_tests =
  [
    Alcotest.test_case "wraparound add" `Quick (fun () ->
        check "max+1 wraps" 0 (Word.add Word.max_value 1));
    Alcotest.test_case "wraparound sub" `Quick (fun () ->
        check "0-1 wraps" Word.max_value (Word.sub 0 1));
    Alcotest.test_case "signed interpretation" `Quick (fun () ->
        check "-1" (-1) (Word.to_signed Word.max_value);
        check "min int32" (-0x8000_0000) (Word.to_signed 0x8000_0000));
    Alcotest.test_case "of_signed round trip" `Quick (fun () ->
        check "-5" (-5) (Word.to_signed (Word.of_signed (-5))));
    Alcotest.test_case "mul truncates" `Quick (fun () ->
        check "mul mod 2^32" ((0x10000 * 0x10000) land 0xFFFF_FFFF)
          (Word.mul 0x10000 0x10000));
    Alcotest.test_case "shifts" `Quick (fun () ->
        check "shl 1 by 31" 0x8000_0000 (Word.shift_left 1 31);
        check "shl by 32 is 0" 0 (Word.shift_left 1 32);
        check "shr" 1 (Word.shift_right_logical 0x8000_0000 31));
    Alcotest.test_case "signed compare" `Quick (fun () ->
        check_bool "-1 < 1" true (Word.compare_signed Word.max_value 1 < 0));
    Alcotest.test_case "lognot" `Quick (fun () ->
        check "lognot 0" Word.max_value (Word.lognot 0));
  ]

(* --- Memory -------------------------------------------------------------- *)

let memory_tests =
  [
    Alcotest.test_case "read32/write32 little endian" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        Memory.write32 m 0 0x11223344;
        check "byte 0" 0x44 (Memory.read8 m 0);
        check "byte 3" 0x11 (Memory.read8 m 3);
        check "word" 0x11223344 (Memory.read32 m 0));
    Alcotest.test_case "write8 then read32" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        Memory.write8 m 4 0xAB;
        check "low byte" 0xAB (Memory.read32 m 4));
    Alcotest.test_case "out of range raises" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        Alcotest.check_raises "oob"
          (Invalid_argument "Memory.read32: address 0x00000040 out of range")
          (fun () -> ignore (Memory.read32 m 64)));
    Alcotest.test_case "blit and read back" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        Memory.blit_bytes m 8 (Bytes.of_string "hello");
        check_bool "round trip" true
          (Bytes.to_string (Memory.read_bytes m 8 5) = "hello"));
    Alcotest.test_case "fill" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        Memory.fill m 0 64 0xEE;
        check "filled" 0xEE (Memory.read8 m 63));
    Alcotest.test_case "mmio dispatch" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        let last_write = ref 0 in
        Memory.map_device m
          {
            Memory.name = "dev";
            base = 0x1000;
            size = 8;
            read32 = (fun ~offset -> offset + 7);
            write32 = (fun ~offset:_ v -> last_write := v);
          };
        check "mmio read" 7 (Memory.read32 m 0x1000);
        check "mmio read offset" 11 (Memory.read32 m 0x1004);
        Memory.write32 m 0x1000 99;
        check "mmio write" 99 !last_write);
    Alcotest.test_case "mmio overlap rejected" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        let dev base =
          {
            Memory.name = "d";
            base;
            size = 8;
            read32 = (fun ~offset:_ -> 0);
            write32 = (fun ~offset:_ _ -> ());
          }
        in
        Memory.map_device m (dev 0x1000);
        check_bool "overlap raises" true
          (try
             Memory.map_device m (dev 0x1004);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "mmio read8 extracts byte lane" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        Memory.map_device m
          {
            Memory.name = "d";
            base = 0x100;
            size = 4;
            read32 = (fun ~offset:_ -> 0xAABBCCDD);
            write32 = (fun ~offset:_ _ -> ());
          };
        check "lane 0" 0xDD (Memory.read8 m 0x100);
        check "lane 3" 0xAA (Memory.read8 m 0x103));
  ]

(* --- Regfile ------------------------------------------------------------- *)

let regfile_tests =
  [
    Alcotest.test_case "get/set masks to 32 bits" `Quick (fun () ->
        let r = Regfile.create () in
        Regfile.set r 3 (Word.max_value + 5);
        check "masked" 4 (Regfile.get r 3));
    Alcotest.test_case "flags independent" `Quick (fun () ->
        let r = Regfile.create () in
        Regfile.set_zero r true;
        Regfile.set_interrupts r true;
        check_bool "zero" true (Regfile.zero_flag r);
        check_bool "negative clear" false (Regfile.negative_flag r);
        Regfile.set_zero r false;
        check_bool "interrupts survive" true (Regfile.interrupts_enabled r));
    Alcotest.test_case "wipe clears gprs only" `Quick (fun () ->
        let r = Regfile.create () in
        Regfile.set r 0 42;
        Regfile.set_eip r 0x100;
        Regfile.wipe_gprs r;
        check "r0 wiped" 0 (Regfile.get r 0);
        check "eip kept" 0x100 (Regfile.eip r));
    Alcotest.test_case "snapshot and restore" `Quick (fun () ->
        let r = Regfile.create () in
        Regfile.set r 5 55;
        let snap = Regfile.all_gprs r in
        Regfile.wipe_gprs r;
        Regfile.restore_gprs r snap;
        check "restored" 55 (Regfile.get r 5));
  ]

(* --- ISA ----------------------------------------------------------------- *)

let all_instructions =
  [
    Isa.Nop;
    Isa.Movi (3, 0xDEADBEEF);
    Isa.Mov (1, 2);
    Isa.Add (1, 2, 3);
    Isa.Addi (1, 2, 77);
    Isa.Sub (4, 5, 6);
    Isa.Mul (7, 8, 9);
    Isa.And (1, 2, 3);
    Isa.Or (1, 2, 3);
    Isa.Xor (1, 2, 3);
    Isa.Shl (1, 2, 5);
    Isa.Shr (1, 2, 9);
    Isa.Cmp (3, 4);
    Isa.Cmpi (3, 1000);
    Isa.Ldw (1, 2, 16);
    Isa.Stw (2, 20, 3);
    Isa.Ldb (1, 2, 1);
    Isa.Stb (2, 2, 3);
    Isa.Jmp 0x40;
    Isa.Jz 0x40;
    Isa.Jnz 0x40;
    Isa.Jlt 0x40;
    Isa.Jge 0x40;
    Isa.Jmpr 5;
    Isa.Call 0x80;
    Isa.Callr 6;
    Isa.Ret;
    Isa.Push 7;
    Isa.Pop 8;
    Isa.Swi 3;
    Isa.Iret;
    Isa.Halt;
  ]

let isa_tests =
  [
    Alcotest.test_case "encode/decode round trip (all opcodes)" `Quick
      (fun () ->
        List.iter
          (fun instr ->
            let decoded = Isa.decode (Isa.encode instr) in
            check_bool
              (Format.asprintf "%a" Isa.pp instr)
              true (decoded = instr))
          all_instructions);
    Alcotest.test_case "fixed width" `Quick (fun () ->
        List.iter
          (fun instr -> check "8 bytes" Isa.width (Bytes.length (Isa.encode instr)))
          all_instructions);
    Alcotest.test_case "bad opcode rejected" `Quick (fun () ->
        let b = Bytes.make Isa.width '\000' in
        Bytes.set b 0 (Char.chr 200);
        check_bool "raises" true
          (try
             ignore (Isa.decode b);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "costs positive" `Quick (fun () ->
        List.iter
          (fun instr -> check_bool "cost >= 1" true (Isa.cost instr >= 1))
          all_instructions);
    Alcotest.test_case "imm field location" `Quick (fun () ->
        let b = Isa.encode (Isa.Movi (0, 0x11223344)) in
        check "imm LE" 0x44 (Char.code (Bytes.get b Isa.imm_field_offset)));
  ]

(* --- Assembler ----------------------------------------------------------- *)

let assembler_tests =
  [
    Alcotest.test_case "labels resolve to offsets" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.instr p Isa.Nop;
        Assembler.label p "here";
        Assembler.instr p Isa.Halt;
        let prog = Assembler.assemble p in
        check "here at 8" 8 (List.assoc "here" prog.symbols));
    Alcotest.test_case "movi_label emits relocation" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.movi_label p ~rd:0 "target";
        Assembler.label p "target";
        Assembler.word p 7;
        let prog = Assembler.assemble p in
        check "one reloc" 1 (Array.length prog.relocations);
        check "reloc at imm field" Isa.imm_field_offset prog.relocations.(0));
    Alcotest.test_case "branches are relative (no relocation)" `Quick
      (fun () ->
        let p = Assembler.create () in
        Assembler.label p "top";
        Assembler.instr p Isa.Nop;
        Assembler.jmp_label p "top";
        let prog = Assembler.assemble p in
        check "no relocs" 0 (Array.length prog.relocations);
        match Isa.decode (Bytes.sub prog.image Isa.width Isa.width) with
        | Isa.Jmp d -> check "back displacement" (-16) (Word.to_signed d)
        | _ -> Alcotest.fail "expected jmp");
    Alcotest.test_case "undefined label rejected" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.jmp_label p "nowhere";
        check_bool "raises" true
          (try
             ignore (Assembler.assemble p);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "duplicate label rejected" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.label p "x";
        Assembler.label p "x";
        check_bool "raises" true
          (try
             ignore (Assembler.assemble p);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "entry is _start" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.instr p Isa.Nop;
        Assembler.label p "_start";
        Assembler.instr p Isa.Halt;
        check "entry" 8 (Assembler.assemble p).entry);
    Alcotest.test_case "begin_data sets text size" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.instr p Isa.Nop;
        Assembler.begin_data p;
        Assembler.word p 1;
        let prog = Assembler.assemble p in
        check "text" 8 prog.text_size;
        check "image" 12 (Bytes.length prog.image));
    Alcotest.test_case "word_label emits data relocation" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.label p "a";
        Assembler.instr p Isa.Nop;
        Assembler.begin_data p;
        Assembler.word_label p "a";
        let prog = Assembler.assemble p in
        check "reloc offset" 8 prog.relocations.(0));
    Alcotest.test_case "space reserves zeros" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.space p 12;
        check "size" 12 (Bytes.length (Assembler.assemble p).image));
  ]

(* --- CPU execution ------------------------------------------------------- *)

let machine () =
  let mem = Memory.create ~size:4096 in
  let clock = Cycles.create () in
  let engine = Exception_engine.create mem ~idt_base:0x100 in
  let cpu = Cpu.create mem clock engine in
  (mem, clock, engine, cpu)

let load_and_run ?(steps = 100) instrs =
  let mem, clock, _, cpu = machine () in
  List.iteri
    (fun i instr ->
      Memory.blit_bytes mem (0x200 + (i * Isa.width)) (Isa.encode instr))
    instrs;
  Regfile.set_eip (Cpu.regs cpu) 0x200;
  Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
  let rec go n = if n > 0 && Cpu.step cpu = Cpu.Running then go (n - 1) in
  go steps;
  (cpu, clock)

let cpu_tests =
  [
    Alcotest.test_case "arithmetic program" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 20);
              Isa.Movi (1, 22);
              Isa.Add (2, 0, 1);
              Isa.Halt;
            ]
        in
        check "20+22" 42 (Regfile.get (Cpu.regs cpu) 2));
    Alcotest.test_case "memory program" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 0x400);
              Isa.Movi (1, 0xBEEF);
              Isa.Stw (0, 0, 1);
              Isa.Ldw (2, 0, 0);
              Isa.Halt;
            ]
        in
        check "store/load" 0xBEEF (Regfile.get (Cpu.regs cpu) 2));
    Alcotest.test_case "byte access" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 0x400);
              Isa.Movi (1, 0x1FF);
              Isa.Stb (0, 0, 1);
              Isa.Ldb (2, 0, 0);
              Isa.Halt;
            ]
        in
        check "byte truncated" 0xFF (Regfile.get (Cpu.regs cpu) 2));
    Alcotest.test_case "conditional branch taken" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 5);
              Isa.Cmpi (0, 5);
              Isa.Jz 8 (* skip next *);
              Isa.Movi (1, 111);
              Isa.Movi (2, 222);
              Isa.Halt;
            ]
        in
        check "skipped" 0 (Regfile.get (Cpu.regs cpu) 1);
        check "landed" 222 (Regfile.get (Cpu.regs cpu) 2));
    Alcotest.test_case "loop runs to completion" `Quick (fun () ->
        (* r0 counts down from 5; r1 accumulates. *)
        let cpu, _ =
          load_and_run ~steps:200
            [
              Isa.Movi (0, 5);
              Isa.Movi (1, 0);
              (* loop: *)
              Isa.Addi (1, 1, 3);
              Isa.Addi (0, 0, Word.of_signed (-1));
              Isa.Cmpi (0, 0);
              Isa.Jnz (Word.of_signed (-32));
              Isa.Halt;
            ]
        in
        check "5 iterations" 15 (Regfile.get (Cpu.regs cpu) 1));
    Alcotest.test_case "call/ret uses link register" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Call 8 (* to the movi below the halt *);
              Isa.Halt;
              Isa.Movi (3, 77);
              Isa.Ret;
            ]
        in
        check "returned" 77 (Regfile.get (Cpu.regs cpu) 3));
    Alcotest.test_case "push/pop" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 11);
              Isa.Push 0;
              Isa.Movi (0, 0);
              Isa.Pop 1;
              Isa.Halt;
            ]
        in
        check "popped" 11 (Regfile.get (Cpu.regs cpu) 1));
    Alcotest.test_case "cycles accumulate per instruction" `Quick (fun () ->
        let _, clock = load_and_run [ Isa.Nop; Isa.Nop; Isa.Halt ] in
        check "2 nops + halt" 3 (Cycles.now clock));
    Alcotest.test_case "protection hook sees execute" `Quick (fun () ->
        let mem, _, _, cpu = machine () in
        Memory.blit_bytes mem 0x200 (Isa.encode Isa.Halt);
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        let seen = ref [] in
        Cpu.set_check cpu (fun ~eip:_ ~addr ~size:_ ~kind ->
            seen := (addr, kind) :: !seen);
        ignore (Cpu.step cpu);
        check_bool "execute check at 0x200" true
          (List.mem (0x200, Access.Execute) !seen));
    Alcotest.test_case "denied access reaches fault handler" `Quick (fun () ->
        let mem, _, _, cpu = machine () in
        Memory.blit_bytes mem 0x200 (Isa.encode (Isa.Ldw (0, 0, 0x300)));
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Cpu.set_check cpu (fun ~eip ~addr ~size ~kind ->
            match kind with
            | Access.Read -> Access.violation ~eip ~addr ~size ~kind "no"
            | Access.Write | Access.Execute -> ());
        let faulted = ref false in
        Cpu.set_fault_handler cpu (fun _ ->
            faulted := true;
            Cpu.halt cpu);
        ignore (Cpu.step cpu);
        check_bool "fault handler ran" true !faulted);
  ]
  @ List.concat_map
      (fun (name, setup) ->
        (* RAM is 4096 bytes: a fetch at 0xFFC has only 4 of its 8 bytes
           in RAM; one at 0x2000 has none. *)
        let at_fetch () =
          let mem, _, _, cpu = machine () in
          let pc = setup mem in
          Regfile.set_eip (Cpu.regs cpu) pc;
          (cpu, pc)
        in
        let expected pc =
          {
            Access.eip = pc;
            addr = pc;
            size = Isa.width;
            kind = Access.Execute;
            reason = "illegal opcode";
          }
        in
        [
          Alcotest.test_case (name ^ ": illegal-opcode fault") `Quick (fun () ->
              let cpu, pc = at_fetch () in
              let seen = ref None in
              Cpu.set_fault_handler cpu (fun v ->
                  seen := Some v;
                  Cpu.halt cpu);
              ignore (Cpu.step cpu);
              check_bool "execute violation delivered" true
                (!seen = Some (expected pc));
              check "nothing retired" 0 (Cpu.instructions_retired cpu));
          Alcotest.test_case (name ^ ": raises Violation without handler")
            `Quick (fun () ->
              let cpu, pc = at_fetch () in
              match Cpu.step cpu with
              | _ -> Alcotest.fail "fetch did not fault"
              | exception Access.Violation v ->
                  check_bool "illegal opcode" true (v = expected pc)
              | exception Invalid_argument msg ->
                  Alcotest.failf "simulator error escaped: %s" msg);
        ])
      [
        ("fetch straddling the end of RAM", fun _ -> 0xFFC);
        ("fetch past the end of RAM", fun _ -> 0x2000);
        ( "unknown opcode",
          fun mem ->
            Memory.write8 mem 0x200 0xEE;
            0x200 );
      ]
  @ [
    Alcotest.test_case "firmware identity used for host accesses" `Quick
      (fun () ->
        let _, _, _, cpu = machine () in
        let seen_eip = ref 0 in
        Cpu.set_check cpu (fun ~eip ~addr:_ ~size:_ ~kind:_ -> seen_eip := eip);
        Cpu.with_firmware cpu ~eip:0xABC (fun () ->
            ignore (Cpu.load32 cpu 0x400));
        check "attributed to firmware" 0xABC !seen_eip);
  ]

(* --- Exceptions and interrupts ------------------------------------------- *)

let exception_tests =
  [
    Alcotest.test_case "swi enters firmware handler" `Quick (fun () ->
        let mem, _, engine, cpu = machine () in
        let hits = ref 0 in
        let addr =
          Exception_engine.register_firmware engine ~name:"t" (fun () ->
              incr hits;
              Cpu.interrupt_return cpu)
        in
        Exception_engine.set_vector engine (Exception_engine.swi_vector_base + 2) addr;
        Memory.blit_bytes mem 0x200 (Isa.encode (Isa.Swi 2));
        Memory.blit_bytes mem 0x208 (Isa.encode Isa.Halt);
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        ignore (Cpu.step cpu);
        ignore (Cpu.step cpu);
        check "handler ran once" 1 !hits;
        check_bool "halted after return" true (Cpu.halted cpu));
    Alcotest.test_case "swi origin latched" `Quick (fun () ->
        let mem, _, engine, cpu = machine () in
        let origin = ref 0 in
        let addr =
          Exception_engine.register_firmware engine ~name:"t" (fun () ->
              origin := Exception_engine.origin engine;
              Cpu.interrupt_return cpu)
        in
        Exception_engine.set_vector engine 16 addr;
        Memory.blit_bytes mem 0x200 (Isa.encode Isa.Nop);
        Memory.blit_bytes mem 0x208 (Isa.encode (Isa.Swi 0));
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        ignore (Cpu.step cpu);
        ignore (Cpu.step cpu);
        check "origin is the SWI instruction" 0x208 !origin);
    Alcotest.test_case "irq only taken when interrupts enabled" `Quick
      (fun () ->
        let mem, _, engine, cpu = machine () in
        let hits = ref 0 in
        let addr =
          Exception_engine.register_firmware engine ~name:"irq" (fun () ->
              incr hits;
              Cpu.interrupt_return cpu)
        in
        Exception_engine.set_vector engine 1 addr;
        Memory.blit_bytes mem 0x200 (Isa.encode Isa.Nop);
        Memory.blit_bytes mem 0x208 (Isa.encode Isa.Nop);
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        Exception_engine.raise_irq engine 1;
        ignore (Cpu.step cpu);
        check "masked" 0 !hits;
        Regfile.set_interrupts (Cpu.regs cpu) true;
        ignore (Cpu.step cpu);
        check "taken when enabled" 1 !hits);
    Alcotest.test_case "hardware pushes eip and eflags" `Quick (fun () ->
        let mem, _, engine, cpu = machine () in
        let frame = ref (0, 0) in
        let addr =
          Exception_engine.register_firmware engine ~name:"t" (fun () ->
              let sp = Regfile.get (Cpu.regs cpu) Regfile.sp in
              frame := (Memory.read32 mem sp, Memory.read32 mem (sp + 4));
              Cpu.interrupt_return cpu)
        in
        Exception_engine.set_vector engine 16 addr;
        Memory.blit_bytes mem 0x200 (Isa.encode (Isa.Swi 0));
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        Regfile.set_interrupts (Cpu.regs cpu) true;
        ignore (Cpu.step cpu);
        let eip, eflags = !frame in
        check "return address" 0x208 eip;
        check "eflags with IF" 8 eflags);
    Alcotest.test_case "pending irq priority order" `Quick (fun () ->
        let _, _, engine, _ = machine () in
        Exception_engine.raise_irq engine 5;
        Exception_engine.raise_irq engine 2;
        check_bool "lowest line first" true
          (Exception_engine.pending_irq engine = Some 2);
        Exception_engine.ack_irq engine 2;
        check_bool "next" true (Exception_engine.pending_irq engine = Some 5));
    Alcotest.test_case "entry cost charged" `Quick (fun () ->
        let mem, clock, engine, cpu = machine () in
        let addr =
          Exception_engine.register_firmware engine ~name:"t" (fun () ->
              Cpu.interrupt_return cpu)
        in
        Exception_engine.set_vector engine 16 addr;
        Memory.blit_bytes mem 0x200 (Isa.encode (Isa.Swi 0));
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        ignore (Cpu.step cpu);
        check "swi cost + entry cost" (Isa.cost (Isa.Swi 0) + Exception_engine.entry_cost)
          (Cycles.now clock));
  ]

(* --- Devices ------------------------------------------------------------- *)

let device_tests =
  [
    Alcotest.test_case "timer fires on period boundaries" `Quick (fun () ->
        let _, clock, engine, _ = machine () in
        let timer = Devices.Timer.create engine clock ~irq:0 ~period:100 in
        Devices.Timer.poll timer;
        check "not yet" 0 (Devices.Timer.fired timer);
        Cycles.charge clock 100;
        Devices.Timer.poll timer;
        check "fired" 1 (Devices.Timer.fired timer);
        check_bool "irq pending" true
          (Exception_engine.pending_irq engine = Some 0));
    Alcotest.test_case "late service latches one irq" `Quick (fun () ->
        let _, clock, engine, _ = machine () in
        let timer = Devices.Timer.create engine clock ~irq:0 ~period:100 in
        Cycles.charge clock 1000;
        Devices.Timer.poll timer;
        Devices.Timer.poll timer;
        check "single latch for the burst" 1 (Devices.Timer.fired timer);
        ignore engine);
    Alcotest.test_case "disabled timer stays quiet" `Quick (fun () ->
        let _, clock, engine, _ = machine () in
        let timer = Devices.Timer.create engine clock ~irq:0 ~period:10 in
        Devices.Timer.disable timer;
        Cycles.charge clock 100;
        Devices.Timer.poll timer;
        check "no fire" 0 (Devices.Timer.fired timer));
    Alcotest.test_case "sensor samples as a function of time" `Quick
      (fun () ->
        let mem, clock, _, _ = machine () in
        let sensor =
          Devices.Sensor.create ~name:"s" ~base:0x1000 ~clock
            ~sample:(fun ~cycles -> cycles * 2)
        in
        Memory.map_device mem (Devices.Sensor.device sensor);
        Cycles.charge clock 21;
        check "sample" 42 (Memory.read32 mem 0x1000);
        check "read counted" 1 (Devices.Sensor.reads sensor));
    Alcotest.test_case "console collects bytes" `Quick (fun () ->
        let mem, _, _, _ = machine () in
        let console = Devices.Console.create ~base:0x2000 in
        Memory.map_device mem (Devices.Console.device console);
        String.iter
          (fun c -> Memory.write32 mem 0x2000 (Char.code c))
          "hi!";
        check_bool "contents" true (Devices.Console.contents console = "hi!"));
  ]

(* --- Trace --------------------------------------------------------------- *)

let trace_tests =
  [
    Alcotest.test_case "disabled trace records nothing" `Quick (fun () ->
        let clock = Cycles.create () in
        let trace = Trace.create clock in
        Trace.emit trace ~source:"x" "event";
        check "empty" 0 (List.length (Trace.events trace)));
    Alcotest.test_case "bounded capacity evicts oldest" `Quick (fun () ->
        let clock = Cycles.create () in
        let trace = Trace.create ~capacity:2 clock in
        Trace.enable trace;
        Trace.emit trace ~source:"x" "a";
        Trace.emit trace ~source:"x" "b";
        Trace.emit trace ~source:"x" "c";
        let events = Trace.events trace in
        check "two kept" 2 (List.length events);
        check_bool "oldest dropped" true
          ((List.hd events).Trace.detail = "b"));
    Alcotest.test_case "find by substring" `Quick (fun () ->
        let clock = Cycles.create () in
        let trace = Trace.create clock in
        Trace.enable trace;
        Trace.emitf trace ~source:"sched" "dispatch %s" "t1";
        check_bool "found" true
          (Trace.find trace ~source:"sched" ~substring:"t1" <> None);
        check_bool "absent" true
          (Trace.find trace ~source:"sched" ~substring:"zz" = None));
    Alcotest.test_case "eviction keeps the newest events" `Quick (fun () ->
        let clock = Cycles.create () in
        let trace = Trace.create ~capacity:3 clock in
        Trace.enable trace;
        for i = 0 to 9 do
          Trace.emitf trace ~source:"s" "e%d" i
        done;
        let details = List.map (fun e -> e.Trace.detail) (Trace.events trace) in
        check_bool "newest retained, oldest gone" true
          (details = [ "e7"; "e8"; "e9" ]));
    Alcotest.test_case "emitf on a disabled trace never formats" `Quick
      (fun () ->
        let clock = Cycles.create () in
        let trace = Trace.create clock in
        let formatted = ref false in
        Trace.emitf trace ~source:"x" "%t" (fun _ -> formatted := true);
        check_bool "formatter closure untouched" false !formatted;
        check "nothing recorded" 0 (List.length (Trace.events trace)));
    Alcotest.test_case "count and find agree after wraparound" `Quick
      (fun () ->
        let clock = Cycles.create () in
        let trace = Trace.create ~capacity:3 clock in
        Trace.enable trace;
        for i = 0 to 9 do
          Trace.emitf trace ~source:(if i mod 2 = 0 then "even" else "odd") "e%d" i
        done;
        (* Retained window is e7, e8, e9: one even event, two odd. *)
        check "even survivors" 1 (Trace.count trace ~source:"even");
        check "odd survivors" 2 (Trace.count trace ~source:"odd");
        check_bool "newest findable" true
          (Trace.find trace ~source:"odd" ~substring:"e9" <> None);
        check_bool "evicted not findable" true
          (Trace.find trace ~source:"even" ~substring:"e0" = None));
  ]

(* --- The control-flow observer hook ---------------------------------------- *)

(* A little gauntlet exercising one of each transfer: taken and not-taken
   conditionals, direct and indirect jumps and calls, and a return. *)
let hook_gauntlet =
  [
    Isa.Movi (0, 1) (* 0x200 *);
    Isa.Cmpi (0, 1) (* 0x208: sets Z *);
    Isa.Jz 8 (* 0x210: taken -> 0x220 *);
    Isa.Halt (* 0x218: skipped *);
    Isa.Call 8 (* 0x220: -> 0x230, lr = 0x228 *);
    Isa.Halt (* 0x228: final stop after Ret *);
    Isa.Movi (1, 0x260) (* 0x230 *);
    Isa.Cmpi (0, 2) (* 0x238: clears Z *);
    Isa.Jz 8 (* 0x240: NOT taken -> silent *);
    Isa.Jmpr 1 (* 0x248: -> 0x260 *);
    Isa.Halt (* 0x250 *);
    Isa.Halt (* 0x258 *);
    Isa.Ret (* 0x260: -> lr 0x228 *);
  ]

let run_gauntlet ~hook =
  let mem, clock, _, cpu = machine () in
  List.iteri
    (fun i instr ->
      Memory.blit_bytes mem (0x200 + (i * Isa.width)) (Isa.encode instr))
    hook_gauntlet;
  Regfile.set_eip (Cpu.regs cpu) 0x200;
  Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
  let events = ref [] in
  if hook then
    Cpu.set_on_branch cpu (fun ~src ~dst ~kind ->
        events := (src, dst, kind) :: !events);
  let rec go n = if n > 0 && Cpu.step cpu = Cpu.Running then go (n - 1) in
  go 100;
  (cpu, clock, List.rev !events)

let branch_hook_tests =
  [
    Alcotest.test_case "hook sees every taken transfer, and only those"
      `Quick (fun () ->
        let _, _, events = run_gauntlet ~hook:true in
        check_bool "exact event stream" true
          (events
          = [
              (0x210, 0x220, Cpu.Cond_taken);
              (0x220, 0x230, Cpu.Direct_call);
              (0x248, 0x260, Cpu.Indirect_jump);
              (0x260, 0x228, Cpu.Return);
            ]));
    Alcotest.test_case "no hook: same execution, same cycles, no events"
      `Quick (fun () ->
        let cpu_h, clock_h, events = run_gauntlet ~hook:true in
        let cpu_n, clock_n, none = run_gauntlet ~hook:false in
        check "hook observes" 4 (List.length events);
        check "nothing without a hook" 0 (List.length none);
        check "identical cycle count" (Cycles.now clock_h) (Cycles.now clock_n);
        check "identical architectural state"
          (Regfile.eip (Cpu.regs cpu_h))
          (Regfile.eip (Cpu.regs cpu_n)));
    Alcotest.test_case "clear_on_branch detaches the observer" `Quick
      (fun () ->
        let mem, _, _, cpu = machine () in
        Memory.blit_bytes mem 0x200 (Isa.encode (Isa.Jmp 0));
        Memory.blit_bytes mem 0x208 (Isa.encode Isa.Halt);
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        let hits = ref 0 in
        Cpu.set_on_branch cpu (fun ~src:_ ~dst:_ ~kind:_ -> incr hits);
        check_bool "installed" true (Cpu.branch_hook_installed cpu);
        ignore (Cpu.step cpu);
        Cpu.clear_on_branch cpu;
        check_bool "detached" false (Cpu.branch_hook_installed cpu);
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        ignore (Cpu.step cpu);
        check "only the hooked step observed" 1 !hits);
    Alcotest.test_case "swi reports the service number, not an address"
      `Quick (fun () ->
        let mem, _, engine, cpu = machine () in
        (* An IDT entry for SWI 3 pointing at a Halt. *)
        Exception_engine.set_vector engine
          (Exception_engine.swi_vector_base + 3)
          0x400;
        Memory.blit_bytes mem 0x400 (Isa.encode Isa.Halt);
        Memory.blit_bytes mem 0x200 (Isa.encode (Isa.Swi 3));
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        let seen = ref None in
        Cpu.set_on_branch cpu (fun ~src ~dst ~kind -> seen := Some (src, dst, kind));
        ignore (Cpu.step cpu);
        check_bool "swi edge" true (!seen = Some (0x200, 3, Cpu.Swi_entry)));
  ]

(* --- More CPU semantics ---------------------------------------------------- *)

let semantics_tests =
  [
    Alcotest.test_case "signed branch (jlt) on negative difference" `Quick
      (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 3);
              Isa.Cmpi (0, 5);
              Isa.Jlt 8 (* 3 < 5: take *);
              Isa.Movi (1, 111);
              Isa.Movi (2, 222);
              Isa.Halt;
            ]
        in
        check "skipped" 0 (Regfile.get (Cpu.regs cpu) 1);
        check "landed" 222 (Regfile.get (Cpu.regs cpu) 2));
    Alcotest.test_case "jge on equal values" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 5);
              Isa.Cmpi (0, 5);
              Isa.Jge 8;
              Isa.Movi (1, 111);
              Isa.Movi (2, 222);
              Isa.Halt;
            ]
        in
        check "taken on equal" 0 (Regfile.get (Cpu.regs cpu) 1);
        check "landed" 222 (Regfile.get (Cpu.regs cpu) 2));
    Alcotest.test_case "wraparound arithmetic in guest code" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, Word.max_value);
              Isa.Addi (1, 0, 1);
              Isa.Halt;
            ]
        in
        check "wrapped to zero" 0 (Regfile.get (Cpu.regs cpu) 1));
    Alcotest.test_case "logical ops" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 0xF0F0);
              Isa.Movi (1, 0x0FF0);
              Isa.And (2, 0, 1);
              Isa.Or (3, 0, 1);
              Isa.Xor (4, 0, 1);
              Isa.Shl (5, 0, 4);
              Isa.Shr (6, 0, 4);
              Isa.Halt;
            ]
        in
        let r = Cpu.regs cpu in
        check "and" 0x00F0 (Regfile.get r 2);
        check "or" 0xFFF0 (Regfile.get r 3);
        check "xor" 0xFF00 (Regfile.get r 4);
        check "shl" 0xF0F00 (Regfile.get r 5);
        check "shr" 0x0F0F (Regfile.get r 6));
    Alcotest.test_case "mul" `Quick (fun () ->
        let cpu, _ =
          load_and_run [ Isa.Movi (0, 7); Isa.Movi (1, 6); Isa.Mul (2, 0, 1); Isa.Halt ]
        in
        check "42" 42 (Regfile.get (Cpu.regs cpu) 2));
    Alcotest.test_case "indirect call and jump" `Quick (fun () ->
        let cpu, _ =
          load_and_run
            [
              Isa.Movi (0, 0x200 + (3 * Isa.width)) (* address of halt *);
              Isa.Jmpr 0;
              Isa.Movi (1, 999) (* skipped *);
              Isa.Halt;
            ]
        in
        check "skipped" 0 (Regfile.get (Cpu.regs cpu) 1));
    Alcotest.test_case "resume grant bypasses one execute check" `Quick
      (fun () ->
        let mem, _, _, cpu = machine () in
        Memory.blit_bytes mem 0x200 (Isa.encode Isa.Halt);
        Cpu.set_check cpu (fun ~eip:_ ~addr ~size ~kind ->
            match kind with
            | Access.Execute ->
                Access.violation ~eip:0 ~addr ~size ~kind "deny all execution"
            | Access.Read | Access.Write -> ());
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Cpu.grant_resume cpu 0x200;
        (* first fetch: granted; instruction is halt *)
        check_bool "step allowed" true (Cpu.step cpu = Cpu.Halted));
    Alcotest.test_case "iret round trip restores eip and eflags" `Quick
      (fun () ->
        let mem, _, _, cpu = machine () in
        (* push eflags, eip by hand; then execute iret at 0x200 *)
        Memory.blit_bytes mem 0x200 (Isa.encode Isa.Iret);
        Memory.blit_bytes mem 0x300 (Isa.encode Isa.Halt);
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        Cpu.push_word cpu 0x8 (* eflags with IF *);
        Cpu.push_word cpu 0x300 (* eip *);
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        ignore (Cpu.step cpu);
        check "eip restored" 0x300 (Regfile.eip (Cpu.regs cpu));
        check_bool "IF restored" true (Regfile.interrupts_enabled (Cpu.regs cpu));
        ignore (Cpu.step cpu);
        check_bool "halts at restored address" true (Cpu.halted cpu));
  ]

(* --- Disassembler ----------------------------------------------------------- *)

let disasm_tests =
  [
    Alcotest.test_case "round trip through assembler" `Quick (fun () ->
        let instrs = [ Isa.Movi (0, 7); Isa.Addi (1, 0, 3); Isa.Halt ] in
        let p = Assembler.create () in
        List.iter (Assembler.instr p) instrs;
        let prog = Assembler.assemble p in
        let lines = Disasm.of_bytes prog.image in
        check "all decoded" 3 (List.length lines);
        check_bool "instructions match" true
          (List.map (fun l -> l.Disasm.instr) lines = List.map Option.some instrs));
    Alcotest.test_case "bad bytes render as raw" `Quick (fun () ->
        let b = Bytes.make Isa.width '\255' in
        match Disasm.of_bytes b with
        | [ line ] -> check_bool "undecodable" true (line.Disasm.instr = None)
        | _ -> Alcotest.fail "expected one line");
    Alcotest.test_case "addresses honour the base" `Quick (fun () ->
        let b = Bytes.cat (Isa.encode Isa.Nop) (Isa.encode Isa.Halt) in
        match Disasm.of_bytes ~base:0x4000 b with
        | [ a; b' ] ->
            check "first" 0x4000 a.Disasm.addr;
            check "second" (0x4000 + Isa.width) b'.Disasm.addr
        | _ -> Alcotest.fail "expected two lines");
    Alcotest.test_case "annotate attaches labels" `Quick (fun () ->
        let p = Assembler.create () in
        Assembler.instr p Isa.Nop;
        Assembler.label p "target";
        Assembler.instr p Isa.Halt;
        let prog = Assembler.assemble p in
        let annotated =
          Disasm.annotate ~symbols:prog.symbols ~base:0
            (Disasm.of_bytes prog.image)
        in
        match annotated with
        | [ (None, _); (Some "target", _) ] -> ()
        | _ -> Alcotest.fail "labels misplaced");
  ]

let () =
  Alcotest.run "machine"
    [
      ("word", word_tests);
      ("memory", memory_tests);
      ("regfile", regfile_tests);
      ("isa", isa_tests);
      ("assembler", assembler_tests);
      ("cpu", cpu_tests);
      ("semantics", semantics_tests);
      ("exceptions", exception_tests);
      ("devices", device_tests);
      ("disasm", disasm_tests);
      ("trace", trace_tests);
      ("branch-hook", branch_hook_tests);
    ]
