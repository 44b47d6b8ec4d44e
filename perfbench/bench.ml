(* Benchmark program: runs one seeded workload for a host-time budget and
   prints one JSON result line (the last line of stdout).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--digest-dir DIR]
     bench.exe --self-check

   --trace 0 reports the end-to-end metrics; --trace 1 reports the
   per-layer metrics, measured with spans on in alternate blocks of the
   timed loop. See BENCHMARK.json for what each workload and metric is. *)

let workloads =
  [ ("fig1_data", (fun ~seed -> Fig1.echo_loop ~seed ~keysetup:false ()), 0.95);
    ("fig1_keysetup", (fun ~seed -> Fig1.echo_loop ~seed ~keysetup:true ()), 0.95);
    ("fig1_exposed", (fun ~seed -> Fig1.exposed ~seed ()), 0.95);
    ("fluid_grid", (fun ~seed -> Grid.make ~seed ()), 0.90)
  ]

let default_seed = 14
let held_out_seed = 7

(* every per-layer metric with its unit, in BENCHMARK.json order; a
   workload reports 0 for a layer it does not cross *)
let per_layer =
  [ ("engine.events_per_op", "count");
    ("engine.dispatch_ns", "ns");
    ("engine.self_us_per_op", "us");
    ("engine.rounds_per_op", "count");
    ("par.round_us", "us");
    ("link.sends_per_op", "count");
    ("link.drops_per_op", "count");
    ("link.send_ns", "ns");
    ("network.sim_service_ns_per_op", "sim_ns");
    ("routing.lookups_per_op", "count");
    ("routing.next_hop_ns", "ns");
    ("aggregate.spill_pkts_per_op", "count");
    ("aggregate.spill_pass_ratio", "ratio");
    ("dsl.rules", "count");
    ("dsl.verdicts_per_op", "count");
    ("dsl.verdict_ns", "ns");
    ("client.send_us", "us");
    ("server.reply_us", "us");
    ("seal.seal_ns", "ns");
    ("seal.open_ns", "ns");
    ("sha256.digest_ns", "ns");
    ("keytab.sessions", "count");
    ("datapath.forwards_per_op", "count");
    ("datapath.returns_per_op", "count");
    ("datapath.forward_ns", "ns");
    ("datapath.return_ns", "ns");
    ("datapath.key_setup_ns", "ns");
    ("shim.decode_ns", "ns");
    ("shim.encode_ns", "ns");
    ("aes.blocks_per_op", "count");
    ("aes.block_ns", "ns");
    ("cmac.mac_ns", "ns");
    ("rsa.encrypts_per_op", "count");
    ("rsa.decrypts_per_op", "count");
    ("rsa.encrypt512_ns", "ns");
    ("rsa.decrypt512_ns", "ns");
    ("keygen.take_ns", "ns");
    ("gc.minor_per_kop", "count");
    ("gc.major_per_kop", "count");
    ("gc.pause_share", "ratio");
    ("attrib.share", "ratio");
    ("trace.overhead", "ratio")
  ]

(* Set-up runs [setups] times, each from a collected heap, and the
   median is reported; the last instance is the one measured. Only the
   first set-up in a process generates the memoized RSA identities,
   whose prime search takes a seed-dependent time. The count is fixed
   because every set-up leaves a little behind in process-wide state,
   which shows in the live heap. The reference kernel is sampled
   [setup_samples] times before each set-up, so the set-up is rescaled
   by the host's speed at that moment rather than during the loop. *)
let setups = 7
let setup_samples = 3

let timed_setup make ~seed =
  let reference = Util.Samples.create () in
  let rec go k times =
    Gc.full_major ();
    for _ = 1 to setup_samples do
      Util.Samples.add reference (Calib.sample ())
    done;
    let t0 = Calib.cpu_now () in
    let inst = make ~seed in
    let times = (Calib.cpu_now () -. t0) :: times in
    if k > 1 then go (k - 1) times
    else begin
      Util.log "set-up CPU times (s): %s"
        (String.concat " " (List.rev_map (Printf.sprintf "%.4g") times));
      (inst, Calib.factor reference *. Util.median_list times)
    end
  in
  go setups []

type loop = {
  untraced : Util.Samples.t;  (** reference seconds per op, spans off *)
  windows : Util.Samples.t;  (** mean reference seconds per op, per window *)
  reference : Util.Samples.t;  (** reference kernel CPU seconds *)
  mutable ops : int;
  mutable units : int;
  mutable untraced_s : float;
  mutable traced_s : float;
  mutable traced_raw_s : float;  (** traced_s before rescaling *)
  mutable traced_ops : int;
  mutable words : float;  (** minor words allocated by the units *)
  mutable wall_s : float;
}

let block_s = 0.25

(* Units run in windows of about [window_s] CPU seconds. The reference
   kernel (Calib) runs after each window, about a tenth of the loop's
   time, and a window's units are rescaled by the mean of the kernel
   times on either side of it: the host's speed swings within a run,
   and pairing each window with the kernel runs around it steadied the
   median op time of fig1_keysetup from a 1.29x range over 6 runs to
   1.13x, against one factor for the whole run. *)
let window_s = 0.02
let max_window_units = 4096

let timed_loop (inst : Workload.inst) ~seconds ~trace =
  let l =
    { untraced = Util.Samples.create ();
      windows = Util.Samples.create ();
      reference = Util.Samples.create ();
      ops = 0;
      units = 0;
      untraced_s = 0.0;
      traced_s = 0.0;
      traced_raw_s = 0.0;
      traced_ops = 0;
      words = 0.0;
      wall_s = 0.0
    }
  in
  let pend_dt = Float.Array.create max_window_units in
  let pend_ops = Array.make max_window_units 0 in
  let pend_traced = Array.make max_window_units false in
  let pend = ref 0 and pend_s = ref 0.0 in
  let before = ref (Calib.sample ()) in
  let close_window () =
    let after = Calib.sample () in
    Util.Samples.add l.reference after;
    let f = Calib.nominal_s /. ((!before +. after) /. 2.0) in
    before := after;
    let win_s = ref 0.0 and win_ops = ref 0 in
    for i = 0 to !pend - 1 do
      let raw = Float.Array.get pend_dt i and n = pend_ops.(i) in
      let dt = f *. raw in
      if pend_traced.(i) then begin
        l.traced_s <- l.traced_s +. dt;
        l.traced_raw_s <- l.traced_raw_s +. raw;
        l.traced_ops <- l.traced_ops + n
      end
      else begin
        Util.Samples.add l.untraced (dt /. float_of_int n);
        l.untraced_s <- l.untraced_s +. dt;
        win_s := !win_s +. dt;
        win_ops := !win_ops + n
      end
    done;
    if !win_ops > 0 then Util.Samples.add l.windows (!win_s /. float_of_int !win_ops);
    pend := 0;
    pend_s := 0.0
  in
  Spans.on := false;
  let prepare_words = ref 0.0 in
  let w0 = Util.minor_words_all_domains () and calib_w0 = !Calib.words in
  let start = Util.now () in
  let deadline = start +. seconds in
  let next_toggle = ref (start +. block_s) in
  while l.units < inst.prefix_units || Util.now () < deadline do
    let p0 = Gc.minor_words () in
    inst.prepare ();
    prepare_words := !prepare_words +. (Gc.minor_words () -. p0);
    let t0 = Calib.cpu_now () in
    let n = inst.unit_ () in
    let dt = Calib.cpu_now () -. t0 in
    Float.Array.set pend_dt !pend dt;
    pend_ops.(!pend) <- n;
    pend_traced.(!pend) <- !Spans.on;
    incr pend;
    pend_s := !pend_s +. dt;
    l.ops <- l.ops + n;
    l.units <- l.units + 1;
    if !pend_s >= window_s || !pend = max_window_units then close_window ();
    if trace then begin
      Spans.Gc_pause.poll ();
      let t1 = Util.now () in
      if t1 >= !next_toggle then begin
        Spans.on := not !Spans.on;
        next_toggle := t1 +. block_s
      end
    end
  done;
  if !pend > 0 then close_window ();
  Spans.on := false;
  l.wall_s <- Util.now () -. start;
  l.words <-
    Util.minor_words_all_domains () -. w0 -. !prepare_words
    -. (!Calib.words -. calib_w0);
  l

let quantile_us s q = 1e6 *. Util.quantile_sorted (Util.Samples.sorted s) q

(* Quantile [q] of each unit's time over the median of the [2 * tail_h
   + 1] units around it. On a busy host, op times also follow the host's
   speed from millisecond to millisecond, which the reference kernel
   cannot sample that finely: a plain p95 of fig1_data read 1.17x its
   median in a quiet phase and 1.9x in a busy one. Relative to its
   neighbours, a unit keeps the program's own spikes (collector slices,
   re-keys, the slow step of an episode) and drops the host's slower
   swings. *)
let tail_h = 4

let local_tail (s : Util.Samples.t) q =
  let n = s.Util.Samples.n in
  let rel =
    Float.Array.init n (fun j ->
        let lo = max 0 (j - tail_h) and hi = min (n - 1) (j + tail_h) in
        let around = Float.Array.sub s.a lo (hi - lo + 1) in
        Float.Array.sort Float.compare around;
        Float.Array.get s.a j /. Util.quantile_sorted around 0.5)
  in
  Float.Array.sort Float.compare rel;
  Util.quantile_sorted rel q

(* Cross-run determinism: the first run of a (workload, seed) by a given
   build records its digest, and every later run of that build must
   reproduce it. A rebuilt benchmark or library starts a fresh record. *)
let check_digest_file ~dir ~name ~seed digest =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat dir (Printf.sprintf "%s-%d-%s" name seed build) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let recorded = input_line ic in
    close_in ic;
    Util.check (recorded = digest)
      "simulated-output digest %s differs from %s recorded by an earlier run"
      digest recorded
  end
  else begin
    let oc = open_out path in
    output_string oc (digest ^ "\n");
    close_out oc
  end

let run ~name ~seed ~seconds ~trace ~digest_dir =
  let make, tail_q =
    match List.find_opt (fun (n, _, _) -> n = name) workloads with
    | Some (_, mk, q) -> (mk, q)
    | None -> raise (Arg.Bad ("unknown workload " ^ name))
  in
  let inst, setup_s = timed_setup make ~seed in
  if trace then Spans.Gc_pause.start ();
  let before = Workload.snapshot inst and calib_gcs0 = !Calib.minor_gcs in
  let l = timed_loop inst ~seconds ~trace in
  let after = Workload.snapshot inst in
  let calib_gcs = !Calib.minor_gcs - calib_gcs0 in
  Util.log "reference kernel: median %.4g ms over %d samples"
    (1e3 *. Calib.nominal_s /. Calib.factor l.reference) l.reference.Util.Samples.n;
  let ops_per_s = 1e6 /. quantile_us l.windows 0.5 in
  let op_p50_us = quantile_us l.untraced 0.5 in
  let op_tail_us = op_p50_us *. local_tail l.untraced tail_q in
  (* Live heap after a full major collection: exact for a given state.
     [top_heap_words] moved by up to 15% between identical runs with GC
     pacing, too loose to gate on. The sample buffers, whose size follows
     the number of units the host ran, are released first. *)
  Util.Samples.release l.untraced;
  Util.Samples.release l.windows;
  Gc.full_major ();
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
  in
  let correct, failed, metrics =
    try
      inst.verify ();
      let digest = inst.digest () in
      Util.log "%s seed %d: %d ops, digest %s" name seed l.ops digest;
      Option.iter (fun dir -> check_digest_file ~dir ~name ~seed digest) digest_dir;
      let m = Workload.m in
      let metrics =
        if not trace then
          [ m "ops_per_s" "op/s" ops_per_s;
            m "op_p50_us" "us" op_p50_us;
            m "op_tail_us" "us" op_tail_us;
            m "alloc_words_per_op" "words" (l.words /. float_of_int l.ops);
            m "heap_live_mb" "MB" heap_mb;
            m "setup_s" "s" setup_s;
            m "sim_op_p50_ms" "sim_ms" (inst.sim_op_ms ());
            m "sim_goodput_mbps" "sim_Mbit/s" (inst.sim_goodput_mbps ())
          ]
        else begin
          Spans.Gc_pause.poll ();
          let delta = Workload.diff before after in
          let t =
            { Workload.ops = l.ops;
              delta;
              units = l.units;
              traced_ops = l.traced_ops
            }
          in
          let layer, attributed = inst.layers t in
          let per_traced_op x = 1e9 *. x /. float_of_int (max 1 l.traced_ops) in
          let traced_ns = per_traced_op l.traced_s in
          let kop n = 1000.0 *. float_of_int n /. float_of_int l.ops in
          let generic =
            [ m "gc.minor_per_kop" "count" (kop (delta.minor_gcs - calib_gcs));
              m "gc.major_per_kop" "count" (kop delta.major_gcs);
              m "gc.pause_share" "ratio" (Spans.Gc_pause.paused_s () /. l.wall_s);
              (* spans and replays are raw host time *)
              m "attrib.share" "ratio" (attributed /. per_traced_op l.traced_raw_s);
              m "trace.overhead" "ratio"
                (traced_ns
                 /. (1e9 *. l.untraced_s /. float_of_int (l.ops - l.traced_ops))
                -. 1.0)
            ]
          in
          let all = layer @ generic in
          List.map
            (fun (n, u) ->
              match List.find_opt (fun x -> x.Util.name = n) all with
              | Some x ->
                Util.check (x.Util.unit_ = u) "%s reported in %s, not %s" n
                  x.unit_ u;
                x
              | None -> m n u 0.0)
            per_layer
        end
      in
      List.iter
        (fun x ->
          Util.check
            (Float.is_finite x.Util.value && (trace || x.value > 0.0))
            "%s measured %g" x.name x.value)
        metrics;
      (true, inst.failed (), metrics)
    with Util.Check_failed msg ->
      Util.log "%s seed %d: correctness check failed: %s" name seed msg;
      (false, max 1 (inst.failed ()), [])
  in
  print_endline
    (Util.result_line ~correct ~attempted:(max 1 l.ops) ~failed metrics);
  if not correct then exit 1

(* Every workload's deterministic prefix and every correctness check, on
   the default and the held-out seed; the default seed's digest must also
   repeat in a second, fresh instance. *)
let self_check () =
  List.iter
    (fun (name, make, _) ->
      List.iter
        (fun seed ->
          let digest () =
            let inst = make ~seed in
            for _ = 1 to inst.Workload.prefix_units do
              inst.prepare ();
              ignore (inst.unit_ ())
            done;
            inst.verify ();
            let d = inst.digest () in
            Util.check (inst.failed () = 0) "%s: %d failed ops" name (inst.failed ());
            Util.log "self-check %s seed %d: ok, sim_op_p50_ms %.6g, digest %s"
              name seed (inst.sim_op_ms ()) d;
            d
          in
          let d = digest () in
          if seed = default_seed && name <> "fluid_grid" then
            Util.check (digest () = d) "%s: digest differs between two runs" name)
        [ default_seed; held_out_seed ])
    workloads;
  print_endline "self-check ok"

let () =
  let name = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and self = ref false in
  let digest_dir = ref None in
  Arg.parse
    [ ("--workload", Arg.Set_string name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 14)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--digest-dir",
        Arg.String (fun d -> digest_dir := Some d),
        "DIR record and compare simulated-output digests across runs" );
      ("--self-check", Arg.Set self, " run every workload's checks briefly")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  try
    if !self then self_check ()
    else
      run ~name:!name ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~digest_dir:!digest_dir
  with
  | Util.Check_failed msg ->
    Util.log "check failed: %s" msg;
    exit 1
  | Arg.Bad msg ->
    Util.log "%s" msg;
    exit 2
