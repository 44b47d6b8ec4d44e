(* What every workload hands the runner. A workload's timed loop is a
   sequence of units (one op, or one batch of ops for the open loop);
   the first [prefix_units] units are the deterministic prefix that all
   simulated outputs and the digest are taken from, so they do not
   depend on how many units the host manages in the time budget. *)

type counts = {
  events : int;  (** engine events processed *)
  rounds : int;  (** sharded-engine barrier rounds *)
  link_sent : int;
  link_dropped : int;
  forwards : int;  (** core.neutralizer.data_forwarded *)
  returns : int;  (** core.neutralizer.data_returned *)
  box_setups : int;  (** core.neutralizer.key_setups *)
  aes_blocks : int;  (** crypto.aes.blocks_encrypted + blocks_decrypted *)
  rsa_encrypts : int;
  rsa_decrypts : int;
  service_ns : int;  (** simulated processing time charged by Network.service *)
  minor_gcs : int;
  major_gcs : int;
}

(* What the traced run measured around the per-layer numbers. *)
type traced = {
  ops : int;  (** ops over the whole timed phase *)
  delta : counts;  (** counter deltas over the whole timed phase *)
  units : int;  (** timed units, one engine run call each *)
  traced_ops : int;  (** ops run with spans on *)
}

type inst = {
  prefix_units : int;
  prepare : unit -> unit;  (** untimed work before a unit *)
  unit_ : unit -> int;  (** one timed unit; returns the ops it completed *)
  sim_op_ms : unit -> float;
  sim_goodput_mbps : unit -> float;
  digest : unit -> string;
  verify : unit -> unit;  (** end-of-run correctness checks; raises *)
  failed : unit -> int;
  engine_totals : unit -> int * int;  (** cumulative events, rounds *)
  registry : Obs.Registry.t;
  layers : traced -> Util.metric list * float;
      (** per-layer metrics and the attributed host ns per op *)
}

let counter reg name = Util.counter_total reg name

let snapshot inst =
  let reg = inst.registry and def = Obs.Registry.default in
  let events, rounds = inst.engine_totals () in
  let gc = Gc.quick_stat () in
  { events;
    rounds;
    link_sent = counter reg "net.link.sent_packets";
    link_dropped = counter reg "net.link.dropped_packets";
    forwards = counter reg "core.neutralizer.data_forwarded";
    returns = counter reg "core.neutralizer.data_returned";
    box_setups = counter reg "core.neutralizer.key_setups";
    aes_blocks =
      counter def "crypto.aes.blocks_encrypted"
      + counter def "crypto.aes.blocks_decrypted";
    rsa_encrypts = counter def "crypto.rsa.encrypts";
    rsa_decrypts = counter def "crypto.rsa.decrypts";
    service_ns = Util.histogram_sum reg "net.network.service_ns";
    minor_gcs = gc.Gc.minor_collections;
    major_gcs = gc.Gc.major_collections
  }

let diff a b =
  { events = b.events - a.events;
    rounds = b.rounds - a.rounds;
    link_sent = b.link_sent - a.link_sent;
    link_dropped = b.link_dropped - a.link_dropped;
    forwards = b.forwards - a.forwards;
    returns = b.returns - a.returns;
    box_setups = b.box_setups - a.box_setups;
    aes_blocks = b.aes_blocks - a.aes_blocks;
    rsa_encrypts = b.rsa_encrypts - a.rsa_encrypts;
    rsa_decrypts = b.rsa_decrypts - a.rsa_decrypts;
    service_ns = b.service_ns - a.service_ns;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs
  }

let per_op n ~ops = if ops = 0 then 0.0 else float_of_int n /. float_of_int ops
let m name unit_ value = { Util.name; unit_; value }

(* Seeded shuffle of a fixed-composition deck: every seed gets exactly
   the same mix, in a different order. *)
let deck ~seed ~kinds ~copies =
  let rng = Random.State.make [| seed; kinds; copies |] in
  let a = Array.init (kinds * copies) (fun i -> i mod kinds) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The dispatch replay's queue depth: events handled per engine run
   call, as the workload's own loop hands them to the engine. *)
let events_per_run t = max 1 (t.delta.events / max 1 t.units)
