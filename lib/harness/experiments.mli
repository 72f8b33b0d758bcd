(** Top-level experiment driver: regenerates every table and figure of the
    paper's evaluation (plus the Section 5.2 speculation ablation and the
    extension studies) and prints them in the paper's layout. Used by the
    [tsms experiments] CLI command. *)

val run :
  ?limit:int -> names:string list -> (string -> unit) -> unit
(** Run the named experiments ("table1", "fig2", "table2", "fig4",
    "table3", "fig5", "fig6", "ablation", "unroll", "schedulers",
    "scaling", "hetero" or "all"), feeding each rendered block to the
    printer. Every name is checked before any experiment runs: an
    unknown one raises [Invalid_argument] and nothing is printed.

    Table 2 and Figure 4 aggregate one {!Suite.compute} pass, and Table
    3, Figures 5-6 and the ablation one {!Doacross_runs.compute} pass;
    each is built at most once per call, when first needed, and dropped
    when the call returns. [limit] caps loops per benchmark in the suite
    pass. *)

val all_names : string list
