(* The Merkle–Damgård framing of SHA-1 and SHA-256: buffering, padding,
   tallies and rendering, written once.  32-bit lanes are OCaml ints
   masked to 32 bits.

   The block loads use unsafe byte accessors: [compress] is only ever
   called with [pos + block_size <= Bytes.length block], an invariant
   [feed_sub] (the single call-site gatekeeper) validates on entry. *)

module type S = sig
  type ctx

  val digest_size : int
  val block_size : int
  val init : unit -> ctx
  val copy : ctx -> ctx
  val feed : ctx -> bytes -> unit
  val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit
  val finalize : ctx -> bytes
  val digest : bytes -> bytes
  val digest_string : string -> bytes
  val compression_count : ctx -> int
  val to_hex : bytes -> string
  val total_compressions : unit -> int
  val domain_compressions : unit -> int
  val bill_domain : int -> unit
end

module type Compression = sig
  val name : string
  val iv : int array
  val schedule_words : int
  val compress : int array -> int array -> unit
end

let to_hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (Bytes.to_seq b)))

module Make (C : Compression) = struct
  let digest_size = 4 * Array.length C.iv
  let block_size = 64
  let to_hex = to_hex

  (* Process-global and per-domain compression tallies.  The global
     count is an [Atomic.t] so concurrent domains never lose increments,
     and counts compressions performed.  The per-domain count backs
     cycle charging ([charged]-style samplers take a delta around an
     operation, which must not see another domain's compressions
     interleave), and counts compressions billed: those performed plus
     those a replayed result bills without hashing ([bill_domain]). *)
  let global_compressions = Atomic.make 0
  let domain_compressions_key = Domain.DLS.new_key (fun () -> ref 0)

  type ctx = {
    h : int array;  (* chaining lanes *)
    w : int array;  (* preallocated message schedule *)
    buffer : Bytes.t;  (* partial block *)
    mutable buffered : int;
    mutable total_bytes : int;
    mutable compressions : int;
    mutable finalized : bool;
  }

  let init () =
    {
      h = Array.copy C.iv;
      w = Array.make C.schedule_words 0;
      buffer = Bytes.make block_size '\000';
      buffered = 0;
      total_bytes = 0;
      compressions = 0;
      finalized = false;
    }

  let copy ctx =
    {
      ctx with
      h = Array.copy ctx.h;
      w = Array.make C.schedule_words 0;
      buffer = Bytes.copy ctx.buffer;
    }

  let compress ctx block pos =
    let w = ctx.w in
    for i = 0 to 15 do
      let o = pos + (i lsl 2) in
      Array.unsafe_set w i
        ((Char.code (Bytes.unsafe_get block o) lsl 24)
        lor (Char.code (Bytes.unsafe_get block (o + 1)) lsl 16)
        lor (Char.code (Bytes.unsafe_get block (o + 2)) lsl 8)
        lor Char.code (Bytes.unsafe_get block (o + 3)))
    done;
    C.compress ctx.h w;
    ctx.compressions <- ctx.compressions + 1;
    Atomic.incr global_compressions;
    incr (Domain.DLS.get domain_compressions_key)

  let feed_sub ctx data ~pos ~len =
    if ctx.finalized then
      invalid_arg (C.name ^ ".feed: context already finalized");
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg (C.name ^ ".feed_sub: bad range");
    ctx.total_bytes <- ctx.total_bytes + len;
    let consumed = ref 0 in
    (* Top up a partial block first. *)
    if ctx.buffered > 0 then begin
      let take = min len (block_size - ctx.buffered) in
      Bytes.blit data pos ctx.buffer ctx.buffered take;
      ctx.buffered <- ctx.buffered + take;
      consumed := take;
      if ctx.buffered = block_size then begin
        compress ctx ctx.buffer 0;
        ctx.buffered <- 0
      end
    end;
    (* Whole blocks straight from the input. *)
    while len - !consumed >= block_size do
      compress ctx data (pos + !consumed);
      consumed := !consumed + block_size
    done;
    (* Buffer the tail. *)
    let tail = len - !consumed in
    if tail > 0 then begin
      Bytes.blit data (pos + !consumed) ctx.buffer ctx.buffered tail;
      ctx.buffered <- ctx.buffered + tail
    end

  let feed ctx data = feed_sub ctx data ~pos:0 ~len:(Bytes.length data)

  let finalize ctx =
    if ctx.finalized then invalid_arg (C.name ^ ".finalize: already finalized");
    (* 0x80, then zeros up to 8 bytes short of a block boundary, then
       the message's bit length. *)
    let zeros = (119 - (ctx.total_bytes mod block_size)) mod block_size in
    let padding = Bytes.make (zeros + 9) '\000' in
    Bytes.set padding 0 '\x80';
    Bytes.set_int64_be padding (zeros + 1) (Int64.of_int (ctx.total_bytes * 8));
    (* Bypass the total-bytes update: padding is not message data. *)
    let saved_total = ctx.total_bytes in
    feed ctx padding;
    ctx.total_bytes <- saved_total;
    ctx.finalized <- true;
    let out = Bytes.create digest_size in
    for i = 0 to Array.length ctx.h - 1 do
      Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
    done;
    out

  let digest data =
    let ctx = init () in
    feed ctx data;
    finalize ctx

  let digest_string s = digest (Bytes.of_string s)
  let compression_count ctx = ctx.compressions
  let total_compressions () = Atomic.get global_compressions
  let domain_compressions () = !(Domain.DLS.get domain_compressions_key)

  let bill_domain n =
    let c = Domain.DLS.get domain_compressions_key in
    c := !c + n
end
