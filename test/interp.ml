open Tytan_machine
open Tytan_lang

type state = {
  globals : (string, int) Hashtbl.t;
  mutable messages : (int list * Tytan_core.Task_id.t * bool) list;
  mutable stopped : bool;
}

exception Out_of_fuel
exception Stop

let eval_binop op a b =
  let signed = Word.to_signed in
  match (op : Ast.binop) with
  | Ast.Add -> Word.add a b
  | Ast.Sub -> Word.sub a b
  | Ast.Mul -> Word.mul a b
  | Ast.And -> Word.logand a b
  | Ast.Or -> Word.logor a b
  | Ast.Xor -> Word.logxor a b
  | Ast.Shl -> Word.shift_left a (b land 0xFF)
  | Ast.Shr -> Word.shift_right_logical a (b land 0xFF)
  | Ast.Eq -> if Word.equal a b then 1 else 0
  | Ast.Ne -> if Word.equal a b then 0 else 1
  | Ast.Lt -> if signed (Word.sub a b) < 0 then 1 else 0
  | Ast.Ge -> if signed (Word.sub a b) >= 0 then 1 else 0

let rec eval_expr st ~load (e : Ast.expr) =
  match e with
  | Ast.Int n -> Word.of_int n
  | Ast.Var name -> Hashtbl.find st.globals name
  | Ast.Load addr -> Word.of_int (load (eval_expr st ~load addr))
  | Ast.Inbox_status | Ast.Inbox_word _ ->
      (* No inbox in the reference model. *)
      0
  | Ast.Binop (op, a, b) ->
      eval_binop op (eval_expr st ~load a) (eval_expr st ~load b)

let run ?(fuel = 100_000) ?(load = fun _ -> 0) ?(store = fun _ _ -> ())
    (t : Ast.program) =
  match Ast.validate t with
  | Error e -> Error e
  | Ok () ->
      let st =
        { globals = Hashtbl.create 8; messages = []; stopped = false }
      in
      List.iter (fun (n, v) -> Hashtbl.replace st.globals n (Word.of_int v)) t.globals;
      let fuel_left = ref fuel in
      let burn () =
        decr fuel_left;
        if !fuel_left <= 0 then raise Out_of_fuel
      in
      let rec exec_stmt (s : Ast.stmt) =
        burn ();
        match s with
        | Ast.Assign (name, e) ->
            Hashtbl.replace st.globals name (eval_expr st ~load e)
        | Ast.Store (addr, value) ->
            store (eval_expr st ~load addr) (eval_expr st ~load value)
        | Ast.If (c, then_, else_) ->
            if eval_expr st ~load c <> 0 then exec_block then_
            else exec_block else_
        | Ast.While (c, body) ->
            while eval_expr st ~load c <> 0 do
              burn ();
              exec_block body
            done
        | Ast.Repeat (n, body) ->
            for _ = 1 to n do
              burn ();
              exec_block body
            done
        | Ast.Delay e ->
            ignore (eval_expr st ~load e) (* time is not modelled *)
        | Ast.Yield -> ()
        | Ast.Exit ->
            st.stopped <- true;
            raise Stop
        | Ast.Send { payload; receiver; sync } ->
            let words = List.map (eval_expr st ~load) payload in
            st.messages <- (words, receiver, sync) :: st.messages
        | Ast.Clear_inbox -> ()
        | Ast.Queue_send { value; _ } ->
            (* queues are not modelled in the reference semantics *)
            ignore (eval_expr st ~load value)
        | Ast.Queue_recv _ -> ()
      and exec_block stmts = List.iter exec_stmt stmts in
      (try exec_block t.body with
      | Stop -> ()
      | Out_of_fuel -> ());
      if !fuel_left <= 0 then Error "out of fuel" else Ok st

let global st name =
  match Hashtbl.find_opt st.globals name with
  | Some v -> v
  | None -> raise Not_found

let sent st = List.rev st.messages
let exited st = st.stopped
