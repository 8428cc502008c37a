(** Deterministic, splittable pseudo-random number generator.

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit
    state advanced by a Weyl sequence and finalized by a mixing function. It
    is fast, has a period of 2^64, passes BigCrush, and — crucially for a
    synthesis tool whose outputs must be reproducible — supports {e splitting}
    into statistically independent child generators, so that every experiment
    in the benchmark harness can derive its own stream from a single seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Two generators
    built from the same seed produce identical streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] advances [g] and returns a child generator whose stream is
    statistically independent of the remainder of [g]'s stream. *)

val split_at : t -> int -> t
(** [split_at g i] derives the [i]-th child deterministically {e without}
    advancing [g]: the same [(g, i)] always yields the same child. Useful for
    parallel or order-independent derivation of per-trial streams. *)

val bits64 : t -> int64
(** [bits64 g] is the next 64 uniformly random bits. *)

val skip : t -> int -> unit
(** [skip g k] advances [g] past [k] draws in O(1): afterwards [g] is where
    [k] calls of {!bits64} would leave it. The state is a Weyl sequence
    (each draw adds a fixed odd constant modulo 2^64), so skipping is one
    multiply-add. {!float} and {!bool} make one such draw each, so
    [skip g k] also stands in for [k] of them whose values would be
    ignored. Raises [Invalid_argument] if [k < 0]. *)

val float : t -> float
(** [float g] is uniform on [\[0, 1)] with 53 bits of precision. *)

val int : t -> int -> int
(** [int g n] is uniform on [\[0, n-1\]]. Raises [Invalid_argument] if
    [n <= 0]. Unbiased (rejection sampling). *)

val bool : t -> bool
(** [bool g] is a fair coin flip. *)

val seed_of_string : string -> int
(** [seed_of_string s] hashes [s] (FNV-1a) into a seed, so experiments can be
    keyed by name. *)
