(* Host-speed reference. The VMs this benchmark runs on change speed by
   up to 3x for seconds to hours at a time, with no change to the
   program: the host's other tenants compete for the same cores, caches
   and memory. Host times are therefore reported at a reference speed:
   the runner samples [kernel] among the ops it times and multiplies
   their CPU times by [nominal_s] / the kernel time around them, so a
   slower phase stretches both and largely cancels out.

   The kernel is fixed work written against the stdlib alone, so no
   change to the repository's libraries can speed it up or slow it
   down. It is a round of everyday OCaml on short-lived data: maps,
   hash tables, formatting, sorting and digests, which allocate, chase
   pointers, compare and hash much as the workloads do. Of the kernels
   tried, it followed the workloads' slowdowns most closely (see
   METRICS.md). The workloads can still slow down somewhat more or less
   than it does, so a rescaled time still moves a little with the
   host's load. The kernel keeps nothing alive. A minor collection
   before each timed run empties the minor heap, so the kernel never
   promotes the program's young data.

   Every time is process CPU time ([getrusage]), which leaves out the
   time the hypervisor runs another guest on the vCPU (steal) and the
   time other processes take. *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One kernel run's CPU time at the reference speed: the unit of every
   host-time metric. 1 us of a metric is 1/1000 of one kernel run. *)
let nominal_s = 1e-3

(* One round: a string-keyed map, a hash table, a buffer, a sort and a
   digest over 32 fresh keys, all garbage at the end of the round. *)
module Smap = Map.Make (String)

let round r =
  let keys = List.init 32 (fun i -> Printf.sprintf "k%d-%d" i (i * r land 63)) in
  let m = List.fold_left (fun m k -> Smap.add k (String.length k) m) Smap.empty keys in
  let h = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace h k (Smap.find k m)) keys;
  let b = Buffer.create 256 in
  let acc = ref 0 in
  List.iter
    (fun k ->
      Buffer.add_string b k;
      acc := !acc + Hashtbl.find h k)
    keys;
  let sorted = List.sort compare (List.rev_map Hashtbl.hash keys) in
  !acc + List.hd sorted + String.length (Digest.string (Buffer.contents b))

let rounds = 70

let kernel n =
  let acc = ref 0 in
  for r = 1 to n do
    acc := !acc + round r
  done;
  ignore (Sys.opaque_identity !acc)

let words = ref 0.0
let minor_gcs = ref 0

(* A short warm-up, a minor collection, then one timed kernel run: its
   CPU seconds. The words it allocates and the minor collections it
   runs are counted so that the runner can leave them out of the
   program's. *)
let sample () =
  let w0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.minor_collections in
  kernel (rounds / 4);
  Gc.minor ();
  let t0 = cpu_now () in
  kernel rounds;
  let dt = cpu_now () -. t0 in
  words := !words +. (Gc.minor_words () -. w0);
  minor_gcs := !minor_gcs + (Gc.quick_stat ()).Gc.minor_collections - c0;
  dt

(* The factor that takes CPU times to the reference speed, from kernel
   samples taken among them: [nominal_s] / their median. *)
let factor samples =
  nominal_s /. Util.quantile_sorted (Util.Samples.sorted samples) 0.5
