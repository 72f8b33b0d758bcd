(** Process-wide warn-once.

    Infrastructure degradations (a cache write failing on a full disk, a
    cache directory that cannot be opened) should tell the user what
    happened exactly once
    and then stay quiet: the event is still counted by its metric, but a
    778-loop sweep must not print 778 copies of the same warning.

    Warnings go to [stderr] by default ("tsms: warning: ..."); tests
    install a capturing sink with {!set_sink}. All operations are
    domain-safe. *)

val once : key:string -> string -> unit
(** [once ~key msg] emits [msg] the first time [key] is seen and is a
    no-op on every later call with the same [key]. *)

val set_sink : (string -> unit) option -> unit
(** Replace the output sink ([None] restores the default stderr
    printer). The sink receives the raw message, without the
    ["tsms: warning: "] prefix the default printer adds. *)

val reset : unit -> unit
(** Forget every seen key, so the next {!once} per key emits again.
    For tests. *)
