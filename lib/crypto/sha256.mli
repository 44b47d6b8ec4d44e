(** SHA-256 (FIPS 180-4).

    Used for end-to-end session key derivation, the HMAC inside {!Seal}
    and DNS record signatures. The round constants are derived from the
    fractional parts of cube roots of the first 64 primes at
    initialisation and validated by RFC known-answer tests.

    One compression function serves every entry point. It reads
    big-endian words straight from the input and reuses one message
    schedule per call; the one-shot forms pad into a single tail buffer.
    No state is shared between calls, so every function is safe to call
    from several domains at once. *)

val digest : string -> string
(** [digest msg] is the 32-byte hash. *)

val digest_hex : string -> string

type midstate
(** The chaining state after one 64-byte block. Immutable: finishing a
    hash from it copies it first, so one midstate may be reused and
    shared across domains. {!Hmac} keeps its padded key blocks as
    midstates. *)

val midstate : string -> midstate
(** [midstate block] hashes the 64-byte [block]. Raises
    [Invalid_argument] on any other length. *)

val digest_from : midstate -> string -> string
(** [digest_from (midstate block) msg] = [digest (block ^ msg)]. *)

(** {1 Streaming} *)

type ctx
(** An immutable streaming state: [feed] returns a new context. *)

val init : unit -> ctx
val feed : ctx -> string -> ctx
val finalize : ctx -> string
