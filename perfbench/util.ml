(* Timing, order statistics, digests and JSON output shared by the
   workloads. Wall time (run length, spans, replays) comes from
   [Unix.gettimeofday], the timed units' CPU time from [Calib];
   simulated time only ever from the engine clock. *)

let now () = Unix.gettimeofday ()

(* Growable unboxed sample buffer: recording a sample never allocates
   except when the buffer doubles. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 4096; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let sorted t =
    let s = Float.Array.sub t.a 0 t.n in
    Float.Array.sort Float.compare s;
    s

  (* drops the samples; only for after their last read *)
  let release t =
    t.a <- Float.Array.create 0;
    t.n <- 0
end

(* Linear-interpolated quantile of an already sorted array, q in [0, 1]. *)
let quantile_sorted s q =
  let n = Float.Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then Float.Array.get s (n - 1)
    else
      (Float.Array.get s i *. (1.0 -. frac)) +. (Float.Array.get s (i + 1) *. frac)

let median_list xs =
  let s = Float.Array.of_list xs in
  Float.Array.sort Float.compare s;
  quantile_sorted s 0.5

(* Order-sensitive 64-bit FNV-1a fold: the simulated-output digest of a
   workload is built by feeding every simulated value and tally into it. *)
module Digest64 = struct
  type t = { mutable h : int64 }

  let create () = { h = 0xcbf29ce484222325L }

  let byte t b =
    t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (b land 0xff))) 0x100000001b3L

  let int t x =
    for k = 0 to 7 do
      byte t ((x lsr (8 * k)) land 0xff)
    done

  let int64 t x = int t (Int64.to_int x)
  let string t s = String.iter (fun c -> byte t (Char.code c)) s; int t (String.length s)
  let to_hex t = Printf.sprintf "%016Lx" t.h
end

(* Sum of an obs counter family over all label sets, e.g. every link's
   [net.link.sent_packets]. *)
let counter_total reg name =
  List.fold_left
    (fun acc (n, _, m) ->
      match m with
      | Obs.Registry.Counter c when n = name -> acc + Obs.Counter.value c
      | _ -> acc)
    0 (Obs.Registry.metrics reg)

let histogram_sum reg name =
  List.fold_left
    (fun acc (n, _, m) ->
      match m with
      | Obs.Registry.Histogram h when n = name -> acc + Obs.Histogram.sum h
      | _ -> acc)
    0 (Obs.Registry.metrics reg)

(* Allocation across every domain. [Gc.minor_words] is domain-local in
   OCaml 5.1, so a pooled run would miss the worker domains' share;
   [Gc.quick_stat] folds in every domain's sample (current as of its
   last minor collection, which is at most one minor heap behind). *)
let minor_words_all_domains () = (Gc.quick_stat ()).Gc.minor_words

type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.12g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt
