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

    Layout: in [<dir>/packs/], each writing handle appends to a pack of
    its own, named [<µs time>-<pid>-<seq>.pack] and created exclusively,
    so no two writers share a file. A record is
    [tsp2 <key> <payload-md5-hex> <len>\n<payload>]. The first {!find}
    or {!store} on a handle indexes every pack in memory (key to bytes
    and offset; packs in name order, records in file order, a later
    record for a key replacing an earlier one), so a hit is a table
    lookup plus an unmarshal. A miss re-lists [packs/] and indexes what
    other handles and processes appended since, but only when the
    directory's mtime or a known pack's size has changed since the last
    listing (a listing within a second of the directory's last change
    is not trusted, since file-system timestamps are coarse); otherwise
    it costs one [stat] per pack of another writer, plus one for
    [packs/]. Anything else under
    [<dir>] (the [objects/] and [journals/] directories of older
    binaries) is ignored: a store written by an older binary reads
    cold once.

    Robustness guarantees:

    - {b Atomic records}: a record is indexed only when its whole
      payload is there and matches the header's length and digest, so
      readers (including concurrent processes) never see a partial
      entry. An incomplete record ends a pack's scan, which the next
      refresh resumes from there; a record whose digest fails is
      skipped; a header that does not parse ends the scan of its pack.
      Nothing ever escalates to an exception: the caller recomputes.
    - {b No fsync}: a record is flushed to the kernel after every
      append and never synced to the device, so a power loss may lose
      or cut the newest records — which then read as misses.
    - {b Write degradation}: a failed append (disk full, unwritable
      store) never aborts the computation — {!store} closes the pack,
      warns once, counts [persist.degraded], and the run continues
      uncached for that entry; the next {!store} opens a new pack.

    Every I/O path is instrumented with {!Ts_resil.Fault} counter points
    ([persist.open]; [persist.read], once per {!find}; [persist.write],
    once per {!store}, where kind [exn] fails the append and kind [torn]
    writes half the payload and returns; both close the pack), so each
    degradation above is exercisable deterministically in tests.

    Hit/miss/store counters land on {!Ts_obs.Metrics.default} under
    [persist.*]. All operations are domain-safe: one mutex per handle
    guards its index, its pack reads and its appends; marshalling a
    value for {!store}, digesting it and unmarshalling a hit run outside
    it. *)

type t
(** An open store rooted at a directory. *)

val open_store : dir:string -> t
(** Open (creating directories as needed) the store rooted at [dir].
    Reads no pack: indexing waits for the first {!find} or {!store}.
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
(** Look the key up. [None] on absence, corruption or an unreadable
    pack. The ['a] is whatever {!store} put there — callers keep key
    spaces for different result types disjoint by construction (a kind
    tag inside the digested string). *)

val store : t -> key:string -> 'a -> unit
(** Append one record to this handle's pack and flush it; concurrent
    writers of the same key are safe, and a reader indexing both
    records keeps the later one. [key] must be one word (no space or
    newline), as {!digest_hex} makes. Never raises: a write failure
    warns once, increments [persist.degraded] and leaves the run
    uncached for this entry — the cache must never take the computation
    down with it. *)
