(** Fixed-size domain pool with one deterministic barrier primitive.

    The sharded event engine ({!Net.Engine}) advances its shards in
    conservative-lookahead rounds; {!round} runs one such round, one
    task per shard, on OCaml 5 domains and returns only once every task
    has finished. Nothing else in the repo submits work to a pool.

    Built on stdlib [Domain]/[Mutex]/[Condition] only; no domainslib. A
    pool of size [n] uses [n - 1] worker domains plus the submitting
    thread, which works the round's queue instead of blocking — so
    [size = 1] spawns no domains at all and {e is} the sequential path.

    Concurrency contract: submit from one thread at a time (in this
    repo, the engine's coordinator). Tasks must not call {!round}
    recursively on the same pool, and may only bump {e pre-resolved}
    obs counters/gauges (which are atomic, see {!Obs.Counter}) —
    resolving new metrics mutates the registry hashtable and belongs on
    the coordinating thread. *)

type pool

val create : size:int -> unit -> pool
(** [create ~size ()] starts a pool of parallelism degree [size >= 1]
    ([size - 1] worker domains; the caller is the [size]-th worker).
    Raises [Invalid_argument] when [size < 1]. *)

val round : pool -> n:int -> f:(int -> unit) -> unit
(** [round pool ~n ~f] runs [f 0 .. f (n-1)] as one barrier round: each
    index is its own task, and the call returns only when every task
    has completed. [n = 0] is a no-op; [n < 0] raises
    [Invalid_argument]. If tasks raise, the whole round still drains
    and the {e lowest-indexed} exception is re-raised — whichever
    domain hit its failure first. The barrier is the happens-before
    edge that makes the engine coordinator's outbox merge race-free. *)

val shutdown : pool -> unit
(** Stop and join the worker domains. Idempotent; the pool must not be
    used afterwards. *)

val with_pool : size:int -> (pool -> 'a) -> 'a
(** [with_pool ~size f] runs [f] with a fresh pool and shuts it down on
    the way out, exceptions included. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)
