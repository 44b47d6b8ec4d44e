(* fluid_grid: experiment E14's million-client run (400 generated
   domains, 1000 cohorts of 1000 clients, every 5th domain dropping TCP)
   on 4 engine shards, advanced one grid step per op. The shard rounds
   run inline, without a domain pool: on a 2-vCPU box the pooled run
   swung by up to 2x from run to run (barrier waits on a preempted
   worker), too unsteady to gate on; the inline rounds are the same
   simulation, bit for bit.
   A run repeats the 100-step episode as often as the time budget
   allows; every episode must end in the same cohort digest.

   The topology is always E14's (generator seed 14). The workload seed
   shifts the phase of E14's traffic pattern (every 4th cohort TCP,
   every 9th cross traffic) across the domains, so each seed has the
   same mix on the same graph and seed 14 is E14 itself. *)

open Workload

let domains = 400
let cohorts = 1000
let clients_per_cohort = 1000
let rate_bps = 64_000
let steps = 100
let dt = 50_000_000L
let policed_every = 5
let shards = 4

(* BENCH_scale.json, "scale": seed 14 at these parameters. *)
let e14_digest = 0x29cd5fb51e43c858
let topology_seed = 14
let pattern_period = 36

let tcp_drop (o : Net.Observation.t) =
  if o.protocol = 6 then Net.Network.Drop else Net.Network.Forward

type world = {
  engine : Net.Engine.t;
  agg : Net.Aggregate.t;
  gen : Net.Topogen.t;
  net : Net.Network.t;
}

(* Same construction as E14's hybrid run, through the public API. *)
let build ~reg ~seed ~shards =
  let gen = Net.Topogen.generate ~domains ~seed:topology_seed () in
  let phase =
    (((seed - topology_seed) mod pattern_period) + pattern_period)
    mod pattern_period
  in
  let engine = Net.Engine.create ~obs:reg ~shards ~topo:gen.topo () in
  let net = Net.Network.create engine gen.topo in
  for d = 0 to domains - 1 do
    if d mod policed_every = policed_every - 1 then
      Net.Network.add_middleware net d tcp_drop
  done;
  let agg = Net.Aggregate.create ~dt ~steps net in
  for i = 0 to cohorts - 1 do
    let src_dom = i mod domains and k = i + phase in
    let protocol = if k mod 4 = 3 then Net.Packet.Tcp else Net.Packet.Udp in
    let dst =
      if k mod 9 = 8 then
        let target = (src_dom + 1 + (k mod (domains - 1))) mod domains in
        (Net.Topology.node gen.topo gen.routers.(target)).addr
      else gen.anycast
    in
    ignore
      (Net.Aggregate.add_cohort agg ~protocol
         ~app:(if protocol = Net.Packet.Tcp then "bulk" else "voip")
         ~src:gen.routers.(src_dom) ~dst ~clients:clients_per_cohort ~rate_bps
         ())
  done;
  Net.Aggregate.launch agg;
  { engine; agg; gen; net }

let reference_digest ~seed =
  let w = build ~reg:(Obs.Registry.create ()) ~seed ~shards:1 in
  Net.Engine.run w.engine;
  Net.Aggregate.digest w.agg

let make ~seed () =
  let reg = Obs.Registry.create () in
  let cur = ref (build ~reg ~seed ~shards) in
  let step = ref 0 in
  let events_before = ref 0 and rounds_before = ref 0 in
  let spill_sent_before = ref 0 and spill_back_before = ref 0 in
  let digests = ref [] and failed = ref 0 and broken = ref false in
  let first = ref None in
  let finish_episode () =
    let w = !cur in
    let s = Net.Aggregate.stats w.agg in
    events_before := !events_before + Net.Engine.processed w.engine;
    rounds_before := !rounds_before + Net.Engine.rounds w.engine;
    spill_sent_before := !spill_sent_before + s.spill_pkts_sent;
    spill_back_before := !spill_back_before + s.spill_pkts_back
  in
  let prepare () =
    if !step = steps || !broken then begin
      finish_episode ();
      cur := build ~reg ~seed ~shards;
      step := 0;
      broken := false
    end
  in
  let unit_ () =
    let w = !cur in
    incr step;
    (try
       Spans.time1 Spans.run
         (fun () ->
           Net.Engine.run
             ~until:(Int64.mul (Int64.of_int !step) (Net.Aggregate.dt w.agg))
             w.engine;
           (* the last step also drains spill packets still in flight *)
           if !step = steps then Net.Engine.run w.engine)
         ()
     with e ->
       Util.log "fluid_grid: step %d raised %s" !step (Printexc.to_string e);
       incr failed;
       broken := true);
    if !step = steps && not !broken then begin
      digests := Net.Aggregate.digest w.agg :: !digests;
      if !first = None then first := Some (w, Net.Aggregate.stats w.agg)
    end;
    1
  in
  let first_episode () =
    match !first with
    | Some x -> x
    | None -> raise (Util.Check_failed "the first episode did not complete")
  in
  let sim_op_ms () =
    (* median over cohorts of their mean one-way latency *)
    let w, _ = first_episode () in
    Util.median_list
      (List.filter_map
         (fun (r : Net.Flow.report) ->
           if r.received > 0 then Some r.mean_latency_ms else None)
         (Net.Aggregate.reports w.agg))
  in
  let sim_goodput_mbps () =
    let _, s = first_episode () in
    float_of_int (8 * s.box_goodput_bytes) /. s.duration_s /. 1e6
  in
  let digest () =
    let w, s = first_episode () in
    let dg = Util.Digest64.create () in
    Util.Digest64.int dg (Net.Aggregate.digest w.agg);
    List.iter (Util.Digest64.int dg)
      [ s.offered_bytes; s.delivered_bytes; s.spilled_bytes; s.spill_pkts_sent;
        s.spill_pkts_back; s.box_goodput_bytes; Net.Engine.processed w.engine ];
    Util.Digest64.to_hex dg
  in
  let verify () =
    Util.check (!failed = 0) "%d grid steps did not complete" !failed;
    ignore (first_episode ());
    let reference = reference_digest ~seed in
    List.iter
      (fun d ->
        Util.check (d = reference)
          "episode digest %016x differs from the shards=1 digest %016x" d
          reference)
      !digests;
    if seed = 14 then
      Util.check (reference = e14_digest)
        "seed-14 digest %016x differs from the committed E14 digest %016x"
        reference e14_digest
  in
  let engine_totals () =
    let w = !cur in
    ( !events_before + Net.Engine.processed w.engine,
      !rounds_before + Net.Engine.rounds w.engine )
  in
  let layers (t : traced) =
    let ops = t.ops and d = t.delta and tops = t.traced_ops in
    let w = !cur in
    let s = Net.Aggregate.stats w.agg in
    let spill_sent = !spill_sent_before + s.spill_pkts_sent
    and spill_back = !spill_back_before + s.spill_pkts_back in
    let dispatch_ns =
      Replay.dispatch_ns ~shards ~depth:(events_per_run t) ()
    in
    let link_ns = Replay.link_send_ns ~bandwidth_bps:10_000_000_000 ~size:1200 in
    let hop_ns =
      let lookups =
        Array.of_list
          (List.concat_map
             (fun dom ->
               let from = w.gen.routers.(dom) in
               match Net.Network.route_path w.net ~from w.gen.anycast with
               | None -> []
               | Some path ->
                 List.filteri (fun i _ -> i < List.length path - 1) path
                 |> List.map (fun n -> (n, w.gen.anycast)))
             (List.init 40 (fun i -> i * (domains / 40))))
      in
      Replay.next_hop_ns w.gen.topo lookups
    in
    let run_ns = Spans.ns_per_op Spans.run ~ops:tops in
    let lookups = per_op (d.link_sent + d.link_dropped) ~ops in
    let rounds = per_op d.rounds ~ops in
    let metrics =
      [ m "engine.events_per_op" "count" (per_op d.events ~ops);
        m "engine.dispatch_ns" "ns" dispatch_ns;
        m "engine.self_us_per_op" "us" (run_ns /. 1e3);
        m "engine.rounds_per_op" "count" rounds;
        m "par.round_us" "us"
          (if rounds = 0.0 then 0.0 else run_ns /. rounds /. 1e3);
        m "link.sends_per_op" "count" (per_op d.link_sent ~ops);
        m "link.drops_per_op" "count" (per_op d.link_dropped ~ops);
        m "link.send_ns" "ns" link_ns;
        m "network.sim_service_ns_per_op" "sim_ns" (per_op d.service_ns ~ops);
        m "routing.lookups_per_op" "count" lookups;
        m "routing.next_hop_ns" "ns" hop_ns;
        m "aggregate.spill_pkts_per_op" "count" (per_op spill_sent ~ops);
        m "aggregate.spill_pass_ratio" "ratio"
          (if spill_sent = 0 then 0.0
           else float_of_int spill_back /. float_of_int spill_sent)
      ]
    in
    (* Cohort rate updates are Aggregate's own handler work and have no
       replay; they are what the attribution leaves unexplained. *)
    let attributed =
      (per_op d.events ~ops *. dispatch_ns)
      +. (per_op d.link_sent ~ops *. link_ns)
      +. (lookups *. hop_ns)
    in
    (metrics, attributed)
  in
  { prefix_units = steps;
    prepare;
    unit_;
    sim_op_ms;
    sim_goodput_mbps;
    digest;
    verify;
    failed = (fun () -> !failed);
    engine_totals;
    registry = reg;
    layers
  }
