(* SHA-256 per FIPS 180-4; 32-bit lanes on masked OCaml ints.

   Like {!Sha1}, the compression loop is hot (every Merkle node in a
   fleet epoch lands here), so the 64-word message schedule is
   preallocated in the context and block loads use unsafe byte
   accessors.  Soundness of the unsafe accesses: [compress] is only
   called with [pos + block_size <= Bytes.length block], validated by
   [feed_sub] on entry. *)

let digest_size = 32

(* See sha1.ml for why there are two counters: the Atomic survives
   concurrent domains and counts compressions performed, the DLS counter
   gives charged-cycle samplers a delta unpolluted by other domains'
   hashing and counts compressions billed ([bill_domain]). *)
let global_compressions = Atomic.make 0
let domain_compressions_key = Domain.DLS.new_key (fun () -> ref 0)
let block_size = 64
let mask32 = 0xFFFF_FFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;  (* 8 lanes *)
  buffer : Bytes.t;
  w : int array;  (* preallocated 64-word message schedule *)
  mutable buffered : int;
  mutable total_bytes : int;
  mutable compressions : int;
  mutable finalized : bool;
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buffer = Bytes.make block_size '\000';
    w = Array.make 64 0;
    buffered = 0;
    total_bytes = 0;
    compressions = 0;
    finalized = false;
  }

(* Independent snapshot of a streaming context (see Sha1.copy). *)
let copy ctx =
  {
    ctx with
    h = Array.copy ctx.h;
    buffer = Bytes.copy ctx.buffer;
    w = Array.make 64 0;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32
let shr x n = x lsr n

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
  for i = 16 to 63 do
    let x15 = Array.unsafe_get w (i - 15) in
    let x2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr x15 7 lxor rotr x15 18 lxor shr x15 3 in
    let s1 = rotr x2 17 lxor rotr x2 19 lxor shr x2 10 in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask32)
  done;
  let a = ref ctx.h.(0)
  and b = ref ctx.h.(1)
  and c = ref ctx.h.(2)
  and d = ref ctx.h.(3)
  and e = ref ctx.h.(4)
  and f = ref ctx.h.(5)
  and g = ref ctx.h.(6)
  and h = ref ctx.h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land mask32 land !g) in
    let temp1 =
      (!h + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask32
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask32 in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask32
  done;
  let update i v = ctx.h.(i) <- (ctx.h.(i) + v) land mask32 in
  update 0 !a;
  update 1 !b;
  update 2 !c;
  update 3 !d;
  update 4 !e;
  update 5 !f;
  update 6 !g;
  update 7 !h;
  ctx.compressions <- ctx.compressions + 1;
  Atomic.incr global_compressions;
  incr (Domain.DLS.get domain_compressions_key)

let feed_sub ctx data ~pos ~len =
  if ctx.finalized then invalid_arg "Sha256.feed: context already finalized";
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Sha256.feed_sub: bad range";
  ctx.total_bytes <- ctx.total_bytes + len;
  let consumed = ref 0 in
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
  while len - !consumed >= block_size do
    compress ctx data (pos + !consumed);
    consumed := !consumed + block_size
  done;
  let tail = len - !consumed in
  if tail > 0 then begin
    Bytes.blit data (pos + !consumed) ctx.buffer ctx.buffered tail;
    ctx.buffered <- ctx.buffered + tail
  end

let feed ctx data = feed_sub ctx data ~pos:0 ~len:(Bytes.length data)

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: already finalized";
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
  let saved_total = ctx.total_bytes in
  feed ctx padding;
  ctx.total_bytes <- saved_total;
  ctx.finalized <- true;
  let out = Bytes.create digest_size in
  Array.iteri
    (fun i v ->
      Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
      Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
      Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
      Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF)))
    ctx.h;
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
