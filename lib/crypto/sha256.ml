(* All word arithmetic is on native ints masked to 32 bits. Sums of a
   few 32-bit words stay far below 2^62, so they are masked once. *)

let m32 = 0xffffffff

(* Unmasked rotate: the caller masks the xor of several rotations once. *)
let rotr x n = (x lsr n) lor (x lsl (32 - n))

let first_primes n =
  let rec go c acc k =
    if k = 0 then List.rev acc
    else begin
      let is_prime =
        let rec chk d = d * d > c || (c mod d <> 0 && chk (d + 1)) in
        chk 2
      in
      if is_prime then go (c + 1) (c :: acc) (k - 1) else go (c + 1) acc k
    end
  in
  go 2 [] n

(* frac(root) * 2^32, computed in float; validated downstream by the
   known-answer tests (any rounding slip would break them loudly). *)
let frac_bits root p =
  let r = root (float_of_int p) in
  let frac = r -. Float.of_int (int_of_float r) in
  int_of_float (frac *. 4294967296.0) land m32

let k = Array.of_list (List.map (frac_bits Float.cbrt) (first_primes 64))
let h0 = Array.of_list (List.map (frac_bits Float.sqrt) (first_primes 8))

let get_u32 s off =
  (Char.code (String.unsafe_get s off) lsl 24)
  lor (Char.code (String.unsafe_get s (off + 1)) lsl 16)
  lor (Char.code (String.unsafe_get s (off + 2)) lsl 8)
  lor Char.code (String.unsafe_get s (off + 3))

let set_u32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (v land 0xff))

(* The compression function: fold the 64-byte block of [s] at [off] into
   the chaining state [h], using [w] (64 words) as the message schedule.
   The caller bounds-checks [off]. *)
let compress h w s off =
  for t = 0 to 15 do
    Array.unsafe_set w t (get_u32 s (off + (4 * t)))
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 = (rotr x 7 lxor rotr x 18) land m32 lxor (x lsr 3) in
    let s1 = (rotr y 17 lxor rotr y 19) land m32 lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land m32)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = (rotr e' 6 lxor rotr e' 11 lxor rotr e' 25) land m32 in
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = (rotr a' 2 lxor rotr a' 13 lxor rotr a' 22) land m32 in
    let maj = (a' land !b) lor (!c land (a' lor !b)) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

(* Finish a hash whose first [prefix] bytes (a multiple of 64) are already
   folded into [state]: compress [msg]'s whole blocks in place, then pad
   its tail into one 64- or 128-byte buffer. [state] is not mutated. *)
let finish state ~prefix msg =
  let h = Array.copy state and w = Array.make 64 0 in
  let len = String.length msg in
  let whole = len / 64 in
  for i = 0 to whole - 1 do
    compress h w msg (64 * i)
  done;
  let rem = len - (64 * whole) in
  let tail_len = if rem + 9 <= 64 then 64 else 128 in
  let tail = Bytes.make tail_len '\x00' in
  Bytes.blit_string msg (64 * whole) tail 0 rem;
  Bytes.set tail rem '\x80';
  let bitlen = (prefix + len) * 8 in
  set_u32 tail (tail_len - 8) (bitlen lsr 32);
  set_u32 tail (tail_len - 4) (bitlen land m32);
  let tail = Bytes.unsafe_to_string tail in
  compress h w tail 0;
  if tail_len = 128 then compress h w tail 64;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> set_u32 out (4 * i) v) h;
  Bytes.unsafe_to_string out

let digest msg = finish h0 ~prefix:0 msg
let digest_hex msg = Bytes_util.to_hex (digest msg)

type midstate = int array

let midstate block =
  if String.length block <> 64 then
    invalid_arg "Sha256.midstate: block must be 64 bytes";
  let h = Array.copy h0 in
  compress h (Array.make 64 0) block 0;
  h

let digest_from m msg = finish m ~prefix:64 msg

type ctx = { h : int array; pending : string; total : int }

let init () = { h = h0; pending = ""; total = 0 }

let feed ctx s =
  let data = ctx.pending ^ s in
  let nblocks = String.length data / 64 in
  let h = Array.copy ctx.h and w = Array.make 64 0 in
  for i = 0 to nblocks - 1 do
    compress h w data (64 * i)
  done;
  { h;
    pending = String.sub data (64 * nblocks) (String.length data - (64 * nblocks));
    total = ctx.total + String.length s
  }

let finalize ctx =
  finish ctx.h ~prefix:(ctx.total - String.length ctx.pending) ctx.pending
