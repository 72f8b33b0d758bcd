(** Persistent, content-addressed result store.

    Scheduling a loop and simulating it to steady state is deterministic:
    the result is a pure function of the loop's DDG, the machine
    configuration, the address-plan seed and the trip/warmup counts. This
    store memoises those results on disk so regenerating an experiment
    table is a cache lookup per loop instead of a schedule search plus a
    few hundred thousand simulated cycles, and so a killed sweep resumes
    by rerunning it on the same store: every result the killed run
    finished is a hit, and only the rest is recomputed.

    Keys are caller-supplied digests (see {!digest_hex}); the store never
    interprets them. Values go through [Marshal], so they must be plain
    data (no closures) and are only readable by the binary that wrote
    them — both restrictions are fine for a cache, where the worst case
    of a mismatch is a recompute.

    Robustness guarantees:

    - {b Atomic writes}: entries are written to a tempfile in the store
      and renamed into place, so readers (including concurrent processes)
      never see a partial entry.
    - {b Corruption tolerance}: every entry carries a format magic and a
      digest of its payload. A truncated, corrupted or
      wrong-binary-version entry reads as [None] (and is deleted best
      effort) — the caller recomputes; nothing ever escalates to an
      exception.
    - {b Write degradation}: a failed entry write (disk full, unwritable
      store) never aborts the computation — {!store} warns once, counts
      [persist.degraded], and the run continues uncached.

    Every I/O path is instrumented with {!Ts_resil.Fault} counter points
    ([persist.open], [persist.read], [persist.write] — kind [torn]
    supported — [persist.rename]), so each degradation above is
    exercisable deterministically in tests.

    Hit/miss/store counters land on {!Ts_obs.Metrics.default} under
    [persist.*]. All operations are domain-safe. *)

module Lru = Lru
(** The in-memory LRU front for this store (re-exported:
    [Ts_persist.Lru]). See {!Lru}. *)

type t
(** An open store rooted at a directory. *)

val open_store : dir:string -> t
(** Open (creating directories as needed) the store rooted at [dir].
    Raises [Sys_error] if the directory cannot be created. *)

val dir : t -> string

val default_dir : unit -> string
(** Where the CLI puts the store unless told otherwise:
    [$TSMS_CACHE_DIR], else [$XDG_CACHE_HOME/tsms], else
    [$HOME/.cache/tsms], else [_tsms_cache] in the working directory
    (warned once — reruns started elsewhere would miss it). The result
    is always an absolute path, so rerunning a killed sweep finds the
    same store whatever directory it starts from. *)

val digest_hex : string -> string
(** Hex digest of an arbitrary (binary) string — the key constructor.
    Callers serialise whatever identifies a computation (loop structure,
    config, trip counts, a code-version stamp) and digest it. *)

val find : t -> key:string -> 'a option
(** Look the key up. [None] on absence or corruption (the unreadable
    entry is removed best effort). The ['a] is whatever {!store} put
    there — callers keep key spaces for different result types disjoint
    by construction (a kind tag inside the digested string). *)

val store : t -> key:string -> 'a -> unit
(** Write atomically (tempfile + rename; concurrent writers of the same
    key are safe, last rename wins). Never raises: a write failure warns
    once, increments [persist.degraded] and leaves the run uncached for
    this entry — the cache must never take the computation down with
    it. *)

