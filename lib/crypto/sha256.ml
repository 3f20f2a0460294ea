(* SHA-256 per FIPS 180-4: its lanes and its compression function;
   {!Md.Make} frames the blocks, pads, counts and renders.

   Like {!Sha1}, the compression loop is hot (every Merkle node in a
   fleet epoch lands here), so the 64-word message schedule is
   preallocated in the context and the unsafe accesses stay inside its
   64 words and [k]'s. *)

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

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32
let shr x n = x lsr n

include Md.Make (struct
  let name = "Sha256"

  let iv =
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19;
    |]

  let schedule_words = 64

  let compress hs w =
    for i = 16 to 63 do
      let x15 = Array.unsafe_get w (i - 15) in
      let x2 = Array.unsafe_get w (i - 2) in
      let s0 = rotr x15 7 lxor rotr x15 18 lxor shr x15 3 in
      let s1 = rotr x2 17 lxor rotr x2 19 lxor shr x2 10 in
      Array.unsafe_set w i
        ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
        land mask32)
    done;
    let a = ref hs.(0)
    and b = ref hs.(1)
    and c = ref hs.(2)
    and d = ref hs.(3)
    and e = ref hs.(4)
    and f = ref hs.(5)
    and g = ref hs.(6)
    and h = ref hs.(7) in
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
    let update i v = hs.(i) <- (hs.(i) + v) land mask32 in
    update 0 !a;
    update 1 !b;
    update 2 !c;
    update 3 !d;
    update 4 !e;
    update 5 !f;
    update 6 !g;
    update 7 !h
end)
