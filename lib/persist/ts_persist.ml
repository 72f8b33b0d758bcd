(* On-disk layout:

     <dir>/version                          human-readable format stamp
     <dir>/packs/<µs time>-<pid>-<seq>.pack  one append-only pack per writer

   Record format ("tsp2" magic), appended and flushed one at a time:

     tsp2 <key> <payload-digest-hex> <payload-length>\n<marshalled payload>

   The magic doubles as the format version: a header that does not parse
   ends the scan of its pack. Any other file under <dir> (such as the
   [objects/] or [journals/] directories older binaries wrote) is
   ignored. *)

let m_hits = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.hits"
let m_misses = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.misses"
let m_stores = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.stores"

let m_degraded =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded"

(* [index] maps a key to the bytes holding its payload and the payload's
   offset there: a chunk read from a pack, or the marshalled string this
   handle stored. [scanned] maps a pack's file name to the offset its
   scan has consumed; this handle's own packs and packs whose header
   failed to parse sit at [max_int] and are never read again. [sizes]
   maps each other pack the last listing read, and still scans, to the
   size it read,
   and [listed_mtime] is the packs directory's mtime just before the
   last listing, taken at [listed_at] (see [stale]). One lock guards
   every mutable field. *)
type t = {
  root : string;
  lock : Mutex.t;
  index : (string, string * int) Hashtbl.t;
  scanned : (string, int) Hashtbl.t;
  sizes : (string, int) Hashtbl.t;
  mutable listed_mtime : float;
  mutable listed_at : float;
  mutable loaded : bool;
  mutable out : out_channel option;
}

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    (try Sys.mkdir path 0o755
     with Sys_error _ when Sys.file_exists path -> ())
  end

let magic = "tsp2"
let packs_dir t = Filename.concat t.root "packs"

let open_store ~dir =
  Ts_resil.Fault.guard "persist.open";
  mkdir_p (Filename.concat dir "packs");
  let vfile = Filename.concat dir "version" in
  if not (Sys.file_exists vfile) then begin
    let oc = open_out vfile in
    output_string oc "tsms result store, pack format tsp2\n";
    close_out oc
  end;
  {
    root = dir;
    lock = Mutex.create ();
    index = Hashtbl.create 4096;
    scanned = Hashtbl.create 8;
    sizes = Hashtbl.create 8;
    listed_mtime = nan;
    listed_at = 0.0;
    loaded = false;
    out = None;
  }

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

(* I/O latency distributions: [find] (lookup, any pack refresh and
   unmarshal) and [store_exn] (marshal+digest+append) wall time. *)
let m_read_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.read_ms"

let m_write_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.write_ms"

(* A header this long with no newline yet is garbage, not a record
   still being written. *)
let max_header = 256

(* Index the records of [chunk], the bytes of a pack from file offset
   [base] on. Returns the file offset the scan consumed, or [max_int]
   when a header does not parse (the rest of the pack is ignored). An
   incomplete record ends the scan before it, so the next refresh
   resumes there; a record whose digest fails is skipped. *)
let index_chunk t chunk ~base =
  let n = String.length chunk in
  let rec go p =
    match String.index_from_opt chunk p '\n' with
    | None -> if n - p > max_header then max_int else base + p
    | Some nl -> (
        match String.split_on_char ' ' (String.sub chunk p (nl - p)) with
        | [ m; key; sum; len ] when m = magic -> (
            match int_of_string_opt len with
            | Some len when len >= 0 ->
                let off = nl + 1 in
                if len > n - off then base + p
                else begin
                  if Digest.to_hex (Digest.substring chunk off len) = sum then
                    Hashtbl.replace t.index key (chunk, off);
                  go (off + len)
                end
            | _ -> max_int)
        | _ -> max_int)
  in
  go 0

(* The size of [path] and its bytes from offset [from] on. *)
let read_tail path ~from =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      if size <= from then (size, "")
      else begin
        seek_in ic from;
        (size, really_input_string ic (size - from))
      end)

(* Index whatever other writers appended since the last refresh: packs
   not seen yet and the unscanned tails of those seen, in name order.
   Caller holds [t.lock]. Unreadable packs and listings are skipped. *)
let refresh t =
  t.loaded <- true;
  let pdir = packs_dir t in
  t.listed_at <- Unix.gettimeofday ();
  t.listed_mtime <- (try (Unix.stat pdir).st_mtime with Unix.Unix_error _ -> nan);
  let names = try Sys.readdir pdir with Sys_error _ -> [||] in
  Array.sort compare names;
  Hashtbl.reset t.sizes;
  Array.iter
    (fun name ->
      let from = Option.value (Hashtbl.find_opt t.scanned name) ~default:0 in
      if from < max_int then
        match read_tail (Filename.concat pdir name) ~from with
        | size, chunk ->
            let upto =
              if chunk = "" then from else index_chunk t chunk ~base:from
            in
            Hashtbl.replace t.scanned name upto;
            if upto < max_int then Hashtbl.replace t.sizes name size
        | exception (Sys_error _ | End_of_file) -> ())
    names

(* Whether [refresh] could find anything new: the packs directory changed
   since the last listing (a new pack), or a pack being scanned changed
   size. File-system timestamps are coarse, so a pack created in the same
   tick as the listing leaves the mtime as it was: a listing taken within
   a second of the directory's last change proves nothing. Caller holds
   [t.lock]. *)
let stale t =
  let pdir = packs_dir t in
  match (Unix.stat pdir).st_mtime with
  | exception Unix.Unix_error _ -> true
  | mtime ->
      mtime <> t.listed_mtime
      || t.listed_mtime >= t.listed_at -. 1.0
      || Hashtbl.fold
           (fun name size acc ->
             acc
             ||
             match (Unix.stat (Filename.concat pdir name)).st_size with
             | s -> s <> size
             | exception Unix.Unix_error _ -> true)
           t.sizes false

(* Every failure mode — injected read fault, unreadable pack, payload
   that does not unmarshal — is a miss; a cache must never take the
   computation down with it. *)
let find (type a) t ~key : a option =
  Ts_obs.Prof.span "persist.read" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let lookup () =
    Mutex.protect t.lock (fun () ->
        let fresh = not t.loaded in
        if fresh then refresh t;
        match Hashtbl.find_opt t.index key with
        | None when (not fresh) && stale t ->
            refresh t;
            Hashtbl.find_opt t.index key
        | r -> r)
  in
  let parsed =
    try
      Ts_resil.Fault.guard "persist.read";
      Option.map (fun (s, off) -> (Marshal.from_string s off : a)) (lookup ())
    with _ -> None
  in
  Ts_obs.Metrics.incr (if Option.is_none parsed then m_misses else m_hits);
  Ts_obs.Metrics.observe m_read_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
  parsed

let pack_seq = Atomic.make 0

(* A fresh pack of this handle's own, created exclusively: the name
   cannot collide with another writer's. Caller holds [t.lock]. *)
let open_pack t =
  let name =
    Printf.sprintf "%016d-%d-%d.pack"
      (int_of_float (Unix.gettimeofday () *. 1e6))
      (Unix.getpid ())
      (Atomic.fetch_and_add pack_seq 1)
  in
  let fd =
    Unix.openfile
      (Filename.concat (packs_dir t) name)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  Hashtbl.replace t.scanned name max_int;
  let oc = Unix.out_channel_of_descr fd in
  t.out <- Some oc;
  oc

let close_pack t =
  Option.iter close_out_noerr t.out;
  t.out <- None

let store_exn t ~key v =
  Ts_obs.Prof.span "persist.write" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  if key = "" || String.exists (fun c -> c = ' ' || c = '\n') key then
    invalid_arg "Ts_persist.store: key must be one non-empty word";
  let payload = Marshal.to_string v [] in
  (* Both write faults close the pack, as a failed append does: [exn]
     fails the append before it writes a byte, [torn] writes the header
     and half the payload and returns normally (a crash mid-record,
     unnoticed by the writer). No reader indexes an incomplete record,
     and the next [store] opens a new pack, so the records after one
     stay reachable. *)
  let fault =
    match Ts_resil.Fault.check "persist.write" with
    | Some (Ts_resil.Fault.Slow ms) ->
        Ts_resil.Fault.sleep (float_of_int ms /. 1000.0);
        None
    | f -> f
  in
  let torn = fault = Some Ts_resil.Fault.Torn in
  let len = String.length payload in
  let header =
    Printf.sprintf "%s %s %s %d\n" magic key
      (Digest.to_hex (Digest.string payload))
      len
  in
  Mutex.protect t.lock (fun () ->
      if not t.loaded then refresh t;
      try
        if fault = Some Ts_resil.Fault.Exn then
          raise (Ts_resil.Fault.Injected "persist.write");
        let oc = match t.out with Some oc -> oc | None -> open_pack t in
        output_string oc header;
        output_substring oc payload 0 (if torn then len / 2 else len);
        flush oc;
        if torn then close_pack t else Hashtbl.replace t.index key (payload, 0)
      with e ->
        close_pack t;
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
