(* On-disk layout:

     <dir>/version        human-readable store format stamp
     <dir>/objects/<k0k1>/<key>.bin

   Entry format ("tsp1" magic):

     tsp1 <payload-digest-hex>\n<marshalled payload>

   The magic doubles as the format version: bumping it makes every old
   entry unreadable, which [find] treats as a miss. Any other file under
   <dir> (such as a [journals/] directory left by older binaries) is
   ignored. *)

module Lru = Lru

let m_hits = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.hits"
let m_misses = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.misses"
let m_stores = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.stores"

let m_degraded =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded"

(* [tmp_seq] must be atomic, not a plain field: under the resident
   domain pool every worker shares one pid, so the pid alone cannot
   distinguish two concurrent [store]s of different keys — a raced
   plain counter could hand both the same temp path and let their
   atomic renames corrupt each other. *)
type t = { root : string; tmp_seq : int Atomic.t }

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    (try Sys.mkdir path 0o755
     with Sys_error _ when Sys.file_exists path -> ())
  end

let entry_magic = "tsp1"

let open_store ~dir =
  Ts_resil.Fault.guard "persist.open";
  mkdir_p (Filename.concat dir "objects");
  let vfile = Filename.concat dir "version" in
  if not (Sys.file_exists vfile) then begin
    let oc = open_out vfile in
    output_string oc "tsms result store, entry format tsp1\n";
    close_out oc
  end;
  { root = dir; tmp_seq = Atomic.make 0 }

let dir t = t.root

(* Always absolute: rerunning a killed sweep from a different cwd must
   find the same store the killed run wrote. *)
let absolutize d =
  if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d

let default_dir () =
  match Sys.getenv_opt "TSMS_CACHE_DIR" with
  | Some d when d <> "" -> absolutize d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> absolutize (Filename.concat d "tsms")
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" ->
              absolutize (Filename.concat (Filename.concat h ".cache") "tsms")
          | _ ->
              let d = absolutize "_tsms_cache" in
              Ts_resil.Warn.once ~key:"persist.default_dir"
                (Printf.sprintf
                   "no $HOME or $XDG_CACHE_HOME; the result cache falls back \
                    to %s (set $TSMS_CACHE_DIR to pin it)"
                   d);
              d))

let digest_hex s = Digest.to_hex (Digest.string s)

let entry_path t key =
  let shard = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  Filename.concat
    (Filename.concat (Filename.concat t.root "objects") shard)
    (key ^ ".bin")

(* I/O latency distributions: [find] (open+read+digest+unmarshal) and
   [store_exn] (marshal+digest+write+rename) wall time. *)
let m_read_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.read_ms"

let m_write_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.write_ms"

let read_file path =
  Ts_resil.Fault.guard "persist.read";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every failure mode — missing file, bad magic, digest mismatch,
   truncated marshal — is a miss; a cache must never take the computation
   down with it. *)
let find (type a) t ~key : a option =
  Ts_obs.Prof.span "persist.read" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let path = entry_path t key in
  let parsed =
    try
      let s = read_file path in
      (* "tsp1 " ^ 32 hex ^ "\n" *)
      let hdr = String.length entry_magic + 1 + 32 + 1 in
      if
        String.length s >= hdr
        && String.sub s 0 (String.length entry_magic) = entry_magic
        && s.[hdr - 1] = '\n'
      then begin
        let want = String.sub s (String.length entry_magic + 1) 32 in
        let payload = String.sub s hdr (String.length s - hdr) in
        if Digest.to_hex (Digest.string payload) = want then
          Some (Marshal.from_string payload 0 : a)
        else None
      end
      else None
    with _ -> None
  in
  (match parsed with
  | Some _ -> Ts_obs.Metrics.incr m_hits
  | None ->
      Ts_obs.Metrics.incr m_misses;
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ()));
  Ts_obs.Metrics.observe m_read_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
  parsed

let store_exn t ~key v =
  Ts_obs.Prof.span "persist.write" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let payload = Marshal.to_string v [] in
  (* A torn fault simulates a crash or short write that still left a file
     behind: the truncated payload fails its digest check on the next
     [find], which must treat it as a miss and delete it. *)
  let torn =
    match Ts_resil.Fault.check "persist.write" with
    | None -> false
    | Some Ts_resil.Fault.Torn -> true
    | Some (Ts_resil.Fault.Slow ms) ->
        Ts_resil.Fault.sleep (float_of_int ms /. 1000.0);
        false
    | Some Ts_resil.Fault.Exn -> raise (Ts_resil.Fault.Injected "persist.write")
  in
  let path = entry_path t key in
  mkdir_p (Filename.dirname path);
  let tmp =
    let seq = Atomic.fetch_and_add t.tmp_seq 1 in
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) seq
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc entry_magic;
     output_char oc ' ';
     output_string oc (Digest.to_hex (Digest.string payload));
     output_char oc '\n';
     if torn then
       output_string oc (String.sub payload 0 (String.length payload / 2))
     else output_string oc payload;
     close_out oc;
     Ts_resil.Fault.guard "persist.rename";
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Ts_obs.Metrics.observe m_write_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
  Ts_obs.Metrics.incr m_stores

(* A cache must never take the computation down with it: a failed write
   (disk full, unwritable store, injected fault) degrades the run to
   uncached — warned once, counted every time. *)
let store t ~key v =
  try store_exn t ~key v
  with e ->
    Ts_obs.Metrics.incr m_degraded;
    Ts_resil.Warn.once ~key:"persist.store"
      (Printf.sprintf
         "result-cache write failed (%s); continuing uncached"
         (Printexc.to_string e))
