(* SHA-1 per RFC 3174.  32-bit lane arithmetic is done on OCaml ints
   masked to 32 bits.

   The compression loop is the hottest code in the whole simulator —
   every measurement, MAC and Merkle node lands here — so it avoids
   per-block work: the 80-word message schedule is preallocated in the
   context and the block loads use unsafe byte accessors.  The unsafe
   accesses are sound because [compress] is only ever called with
   [pos + block_size <= Bytes.length block], an invariant [feed_sub]
   (the single call site gatekeeper) validates on entry. *)

let digest_size = 20

(* Process-global and per-domain compression tallies.  The global count
   is an [Atomic.t] so concurrent domains never lose increments, and
   counts compressions performed.  The per-domain count backs cycle
   charging ([charged]-style samplers take a delta around an operation,
   which must not see another domain's compressions interleave), and
   counts compressions billed: those performed plus those a replayed
   result bills without hashing ([bill_domain]). *)
let global_compressions = Atomic.make 0
let domain_compressions_key = Domain.DLS.new_key (fun () -> ref 0)
let block_size = 64
let mask32 = 0xFFFF_FFFF

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buffer : Bytes.t;  (* partial block *)
  w : int array;  (* preallocated 80-word message schedule *)
  mutable buffered : int;
  mutable total_bytes : int;
  mutable compressions : int;
  mutable finalized : bool;
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    buffer = Bytes.make block_size '\000';
    w = Array.make 80 0;
    buffered = 0;
    total_bytes = 0;
    compressions = 0;
    finalized = false;
  }

(* Snapshot of a streaming context: the clone absorbs further input
   independently of the original.  This is what lets HMAC cache its
   key-pad compressions ({!Hmac.prepare}). *)
let copy ctx =
  { ctx with buffer = Bytes.copy ctx.buffer; w = Array.make 80 0 }

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

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
  for i = 16 to 79 do
    let x =
      Array.unsafe_get w (i - 3)
      lxor Array.unsafe_get w (i - 8)
      lxor Array.unsafe_get w (i - 14)
      lxor Array.unsafe_get w (i - 16)
    in
    Array.unsafe_set w i (((x lsl 1) lor (x lsr 31)) land mask32)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4 in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then (!b land !c lor (lnot !b land mask32 land !d), 0x5A827999)
      else if i < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
      else if i < 60 then
        (!b land !c lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
      else (!b lxor !c lxor !d, 0xCA62C1D6)
    in
    let temp = (rotl !a 5 + f + !e + k + Array.unsafe_get w i) land mask32 in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := temp
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask32;
  ctx.h1 <- (ctx.h1 + !b) land mask32;
  ctx.h2 <- (ctx.h2 + !c) land mask32;
  ctx.h3 <- (ctx.h3 + !d) land mask32;
  ctx.h4 <- (ctx.h4 + !e) land mask32;
  ctx.compressions <- ctx.compressions + 1;
  Atomic.incr global_compressions;
  incr (Domain.DLS.get domain_compressions_key)

let feed_sub ctx data ~pos ~len =
  if ctx.finalized then invalid_arg "Sha1.feed: context already finalized";
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Sha1.feed_sub: bad range";
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
  if ctx.finalized then invalid_arg "Sha1.finalize: already finalized";
  let bit_length = ctx.total_bytes * 8 in
  let pad_len =
    let rem = (ctx.total_bytes + 1) mod block_size in
    if rem <= 56 then 56 - rem + 1 else block_size - rem + 56 + 1
  in
  let padding = Bytes.make (pad_len + 8) '\000' in
  Bytes.set padding 0 '\x80';
  for i = 0 to 7 do
    Bytes.set padding
      (pad_len + i)
      (Char.chr ((bit_length lsr (8 * (7 - i))) land 0xFF))
  done;
  (* Bypass the total-bytes update: padding is not message data. *)
  let saved_total = ctx.total_bytes in
  feed ctx padding;
  ctx.total_bytes <- saved_total;
  ctx.finalized <- true;
  let out = Bytes.create digest_size in
  let put i v =
    Bytes.set out i (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out (i + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out (i + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out (i + 3) (Char.chr (v land 0xFF))
  in
  put 0 ctx.h0;
  put 4 ctx.h1;
  put 8 ctx.h2;
  put 12 ctx.h3;
  put 16 ctx.h4;
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

let to_hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (Bytes.to_seq b)))
