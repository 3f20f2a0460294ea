(** Tasklang — a small structured language for writing tasks.

    Hand-writing assembler for every task gets old; Tasklang is the
    higher level of the TyTAN tool chain: expressions over 32-bit words,
    task-local variables, volatile MMIO access, control flow and the
    syscall surface (delay/yield/exit/IPC).  {!Compile} lowers programs to
    the ISA; the property tests cross-check the compiler against a
    reference interpreter kept in [test/interp.ml].

    Example — a sensor-triggered alarm:
    {[
      let open Ast in
      program
        ~globals:[ ("alarms", 0) ]
        [
          While (Int 1, [
            If (Binop (Ge, Load (Int sensor_addr), Int 90),
                [ Assign ("alarms", Binop (Add, Var "alarms", Int 1)) ],
                []);
            Delay (Int 1);
          ]);
        ]
    ]} *)

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Eq  (** 1 if equal else 0 *)
  | Ne
  | Lt  (** signed *)
  | Ge  (** signed *)

type expr =
  | Int of int  (** 32-bit literal (wrapped) *)
  | Var of string  (** task-local variable *)
  | Load of expr  (** volatile 32-bit load from an absolute address *)
  | Inbox_status  (** the inbox pending flag *)
  | Inbox_word of int  (** message word 0–7 from the inbox *)
  | Binop of binop * expr * expr

type stmt =
  | Assign of string * expr
  | Store of expr * expr  (** [Store (addr, value)]: volatile 32-bit store *)
  | If of expr * stmt list * stmt list  (** condition is "non-zero" *)
  | While of expr * stmt list
  | Repeat of int * stmt list
      (** run the body a fixed number of times; unlike [While], the
          compiler emits an iteration-bound annotation, so tycheck can
          bound the loop's WCET *)
  | Delay of expr  (** sleep n ticks *)
  | Yield
  | Exit
  | Send of {
      payload : expr list;  (** at most 8 words, m0 first *)
      receiver : Tytan_core.Task_id.t;
      sync : bool;
    }
  | Clear_inbox  (** consume the pending message *)
  | Queue_send of { queue : int; value : expr; timeout : int }
      (** blocking RT-queue send (an OS service for normal tasks; see the
          kernel's queue ABI) *)
  | Queue_recv of { queue : int; into : string; timeout : int }
      (** blocking RT-queue receive into a variable; on timeout or error
          the variable is left unchanged *)

type program = {
  globals : (string * int) list;  (** name, initial value *)
  secrets : string list;
  (** globals holding secret material (key bytes, derived MACs).  The
      compiler records their data words as secret ranges in the image's
      {!Tytan_telf.Manifest}, so the flow verifier taints anything
      loaded from them. *)
  body : stmt list;
  on_message : stmt list option;
  (** secure tasks only: handler for synchronous IPC deliveries *)
}

val program :
  ?globals:(string * int) list ->
  ?secrets:string list ->
  ?on_message:stmt list ->
  stmt list ->
  program

val validate : program -> (unit, string) result
(** Undefined variables, oversized payloads, out-of-range inbox words,
    duplicate globals, secrets that name no declared global. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit

val pp : Format.formatter -> program -> unit
(** Source-like rendering, used in counterexample printing and docs. *)
