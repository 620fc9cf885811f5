(* Load generator for the ForkBase benchmark.

   Runs one seeded workload against the code as shipped — [Persistent.open_]
   with default settings, [forkbase serve] child processes with their
   default config, the log engine with fsync on — and writes the raw
   measurements as one JSON document: latency samples per operation class,
   per-call timings, counters, Obs registry dumps taken outside each timed
   window, and layer self times.  perfbench/run.py turns that document into
   the reported metrics.

   Usage:
     fbbench.exe --workload W --seed N --seconds S --trace 0|1
                 --forkbase PATH --work DIR --out FILE [--chrome FILE]

   Every answer the program returns is checked against a model of what was
   written; a wrong or failed answer counts in [failed]. *)

module Obs = Fb_obs.Obs
module FB = Fb_core.Forkbase
module Persistent = Fb_core.Persistent
module Errors = Fb_core.Errors
module Sync = Fb_core.Sync
module Value = Fb_types.Value
module Table = Fb_types.Table
module Csv = Fb_types.Csv
module Pmap = Fb_postree.Pmap
module Pblob = Fb_postree.Pblob
module Node_cache = Fb_postree.Node_cache
module Store = Fb_chunk.Store
module Log_store = Fb_chunk.Log_store
module Mem_store = Fb_chunk.Mem_store
module Prng = Fb_hash.Prng
module Hash = Fb_hash.Hash
module Zipf = Fb_workload.Zipf
module Edits = Fb_workload.Edits
module Csvgen = Fb_workload.Csvgen
module Remote = Fb_net.Remote
module Mux = Fb_net.Mux
module Frame = Fb_net.Frame
module J = Fb_types.Json

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf failwith fmt

let ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Errors.to_string e)

(* --------------------------- small helpers --------------------------- *)

(* A growable float array for latency samples. *)
module Dyn = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

let find_or_add tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace tbl key v;
    v

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

let random_string rng len =
  String.init len (fun _ -> alnum.[Prng.next_int rng (String.length alnum)])

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.next_int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* "VmHWM:   123456 kB" from /proc/<pid>/status: peak resident set. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> fail "no VmHWM in %s" path
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | Some _ -> scan ()
      in
      scan ())

(* CPU time the hypervisor gave to other guests, and all CPU time, in
   clock ticks since boot (the first line of /proc/stat). *)
let cpu_ticks () =
  match
    In_channel.with_open_text "/proc/stat" In_channel.input_line
    |> Option.map (fun l -> String.split_on_char ' ' l |> List.filter (( <> ) ""))
  with
  | Some ("cpu" :: fields) ->
    let v = List.map int_of_string fields in
    let steal = if List.length v > 7 then List.nth v 7 else 0 in
    (steal, List.fold_left ( + ) 0 v)
  | _ | (exception _) -> (0, 0)

(* ---------------------- child server processes ---------------------- *)

type server = {
  pid : int;
  mutable port : int;
  root : string;
  mutable alive : bool;
}

let children : server list ref = ref []
let work_dir = ref ""

let reap s =
  if s.alive then begin
    s.alive <- false;
    let rec wait () =
      match Unix.waitpid [] s.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let kill_server s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap s
  end

(* SIGTERM lets the server save and close its log; a server that does not
   exit within ten seconds is killed. *)
let stop_server s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10. in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        poll ()
      | 0, _ -> kill_server s
      | _ -> s.alive <- false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.alive <- false
    in
    poll ()
  end

let cleanup () =
  List.iter kill_server !children;
  children := [];
  if !work_dir <> "" then (try rm_rf !work_dir with _ -> ())

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* Banner: "forkbase: serving ROOT on HOST:PORT, metrics on http://HOST:MP ..." *)
let parse_banner text =
  let after marker =
    match Str.search_forward (Str.regexp_string marker) text 0 with
    | i ->
      let j = i + String.length marker in
      let k = ref j in
      while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub text j (!k - j))
    | exception Not_found -> None
  in
  match after " on 127.0.0.1:", after "metrics on http://127.0.0.1:" with
  | Some port, Some mport -> Some (port, mport)
  | _ -> None

(* CPU the servers are pinned to (with taskset), or -1 for no pinning. *)
let server_cpu = ref (-1)

(* Start [forkbase serve] on ephemeral ports and read the bound ports from
   its banner. *)
let spawn_server ~exe ~root =
  let out_path = root ^ ".out" in
  let fd_out =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let serve =
    [| exe; "serve"; "--root"; root; "--port"; "0"; "--metrics-port"; "0" |]
  in
  let argv =
    if !server_cpu < 0 then serve
    else Array.append [| "taskset"; "-c"; string_of_int !server_cpu |] serve
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd_out)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin fd_out fd_out)
  in
  let s = { pid; port = 0; root; alive = true } in
  children := s :: !children;
  let deadline = now () +. 30. in
  let rec wait_banner () =
    match parse_banner (read_file out_path) with
    | Some (port, _mport) -> s.port <- port
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        s.alive <- false;
        fail "forkbase serve exited early: %s" (read_file out_path));
      if now () > deadline then fail "forkbase serve printed no banner";
      Unix.sleepf 0.005;
      wait_banner ()
  in
  wait_banner ();
  s

(* ------------------------- measurement state ------------------------- *)

type phase = {
  mutable p_name : string;
  p_traced : bool;
  samples : (string, Dyn.t) Hashtbl.t;  (** op class -> latencies, us *)
  comps : (string, Dyn.t) Hashtbl.t;    (** layer call -> latencies, us *)
  self_us : (string, float ref) Hashtbl.t;  (** layer -> self time, us *)
  counters : (string, float ref) Hashtbl.t;
  done_at : Dyn.t;  (** completion time of each operation, s after [t0] *)
  lat_at : Dyn.t;  (** latency of each operation, us, in [done_at] order *)
  mutable t0 : float;
  mutable ops : int;
  mutable failed : int;
  mutable wall_s : float;
  mutable steal_pct : float;  (** share of CPU time stolen in the window *)
  mutable local_before : string;
  mutable local_after : string;
  mutable remote_before : (string * string) list;
  mutable remote_after : (string * string) list;
}

let new_phase name traced =
  { p_name = name; p_traced = traced; samples = Hashtbl.create 7;
    comps = Hashtbl.create 7; self_us = Hashtbl.create 7;
    counters = Hashtbl.create 7; done_at = Dyn.create ();
    lat_at = Dyn.create (); t0 = now (); ops = 0; failed = 0; wall_s = 0.;
    steal_pct = 0.;
    local_before = "{}"; local_after = "{}"; remote_before = [];
    remote_after = [] }

let cur = ref (new_phase "none" false)
let phases : phase list ref = ref []

(* [detail]: time each layer call and count store work (the untraced half
   of a traced run).  [spans]: wrap each layer call in an Obs span and
   account self time (the traced half). *)
let detail = ref false
let spans = ref false

let count name x =
  let r = find_or_add !cur.counters name (fun () -> ref 0.) in
  r := !r +. x

(* Counts over a fixed prefix of the seeded operation stream, so one seed
   always gives the same numbers. *)
let exact : (string, float ref) Hashtbl.t = Hashtbl.create 7

let count_exact name x =
  let r = find_or_add exact name (fun () -> ref 0.) in
  r := !r +. x

(* Open span frames of the calling thread: each accumulates the time its
   children took, so a frame's self time is its duration minus that. *)
let frames : float ref list ref = ref []

let in_span layer name f =
  let t0 = now () in
  let child = ref 0. in
  frames := child :: !frames;
  let finish () =
    let d = now () -. t0 in
    frames := List.tl !frames;
    (match !frames with c :: _ -> c := !c +. d | [] -> ());
    let r = find_or_add !cur.self_us layer (fun () -> ref 0.) in
    r := !r +. ((d -. !child) *. 1e6)
  in
  match Obs.with_span name f with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* One call into a layer of the program. *)
let call layer what f =
  if !spans then in_span layer ("bench." ^ layer ^ "." ^ what) f
  else if !detail then begin
    let t0 = now () in
    let v = f () in
    Dyn.push
      (find_or_add !cur.comps (layer ^ "." ^ what) Dyn.create)
      ((now () -. t0) *. 1e6);
    v
  end
  else f ()

(* One closed-loop operation: [f] runs timed, [check] judges its answer
   outside the timed interval. *)
let op cls f check =
  let p = !cur in
  let t0 = now () in
  let result =
    try Ok (if !spans then in_span "bench" ("bench.op." ^ cls) f else f ())
    with e -> Error e
  in
  let t1 = now () in
  Dyn.push (find_or_add p.samples cls Dyn.create) ((t1 -. t0) *. 1e6);
  Dyn.push p.done_at (t1 -. p.t0);
  Dyn.push p.lat_at ((t1 -. t0) *. 1e6);
  p.ops <- p.ops + 1;
  let good =
    match result with
    | Ok v -> (try check v with _ -> false)
    | Error e ->
      prerr_endline ("fbbench: " ^ cls ^ " raised " ^ Printexc.to_string e);
      false
  in
  if not good then p.failed <- p.failed + 1

(* A timed window in which the hypervisor stole more than this share of
   the CPU time measured a busy host, not the program: it is measured
   again, once per run, and the attempt with less stolen time is kept.
   The other attempt stays in the record as "<name>.stolen". *)
let steal_limit_pct = 5.0
let retries_left = ref 1

(* The process hosting the engine ("self" or a server pid) and its peak
   resident set, read when the first timed window ends: later windows,
   and a window measured again, would otherwise add their own growth. *)
let engine_pid = ref "self"
let peak_rss_kb = ref 0

(* Run [step] in a closed loop for [warmup] seconds untimed, then for
   [seconds] (and at least [min_ops] operations) timed, with registry
   dumps on both sides of the timed window.  Warm-up answers are checked
   too; they land in a phase of their own that no metric reads. *)
let rec run_phase ?(min_ops = 0) ?(warmup = 0.) ?(remeasure = true) ~name
    ~detailed ~traced ~seconds ~remote step =
  let loop p seconds =
    cur := p;
    detail := detailed;
    spans := traced;
    let steal0, total0 = cpu_ticks () in
    p.t0 <- now ();
    let deadline = p.t0 +. seconds in
    Fun.protect
      ~finally:(fun () ->
        p.wall_s <- now () -. p.t0;
        detail := false;
        spans := false;
        let steal1, total1 = cpu_ticks () in
        if total1 > total0 then
          p.steal_pct <-
            100. *. float_of_int (steal1 - steal0)
            /. float_of_int (total1 - total0))
      (fun () ->
        while now () < deadline || p.ops < min_ops do
          step ()
        done)
  in
  if warmup > 0. then begin
    let w = new_phase (name ^ ".warmup") traced in
    phases := w :: !phases;
    loop w warmup
  end;
  let p = new_phase name traced in
  p.remote_before <- remote ();
  p.local_before <- Obs.dump_json ();
  loop p seconds;
  p.remote_after <- remote ();
  p.local_after <- Obs.dump_json ();
  phases := p :: !phases;
  if !peak_rss_kb = 0 then peak_rss_kb := vm_hwm_kb !engine_pid;
  if remeasure && p.steal_pct > steal_limit_pct && !retries_left > 0 then begin
    decr retries_left;
    p.p_name <- name ^ ".stolen";
    run_phase ~min_ops ~warmup ~name ~detailed ~traced ~seconds ~remote step;
    match List.find_opt (fun q -> q.p_name = name) !phases with
    | Some again when again.steal_pct > p.steal_pct ->
      again.p_name <- name ^ ".stolen";
      p.p_name <- name
    | _ -> ()
  end

(* The untraced run measures each phase once with no per-call timing; the
   traced run measures it twice — once with per-call timing and store
   counters, once with spans — so the span overhead can be read off. *)
let measure ~trace ?min_ops ?warmup ?remeasure ~name ~seconds ~remote step =
  if trace then begin
    run_phase ?min_ops ?warmup ?remeasure ~name ~detailed:true ~traced:false
      ~seconds ~remote step;
    run_phase ?warmup ?remeasure ~name:(name ^ ".traced") ~detailed:false
      ~traced:true ~seconds ~remote step
  end
  else
    run_phase ?min_ops ?warmup ?remeasure ~name ~detailed:false ~traced:false
      ~seconds ~remote step

(* Read every node of the map once before timing.  Reads verify each chunk
   the first time it is served and remember it, so a long-running process
   reads verified chunks; without this pass that cache fills slowly
   during the timed window and the rate drifts upward through it. *)
let prewarm_map fb =
  match ok "prewarm get" (FB.get fb ~key:"map") with
  | Value.Map pm -> Pmap.iter (fun _ -> ()) pm
  | _ -> fail "prewarm: not a map"

(* A read of the map workloads: the head version, then one key in it. *)
let lookup fb key =
  match call "core" "head" (fun () -> FB.get fb ~key:"map") with
  | Ok (Value.Map pm) -> call "postree" "find" (fun () -> Pmap.find_value pm key)
  | Ok _ -> None
  | Error e -> fail "get: %s" (Errors.to_string e)

let setup_times : float list ref = ref []

(* Set up [n] times from scratch, timing each; keep the last instance. *)
let setups n setup teardown =
  let rec go i =
    Gc.compact ();
    let t0 = now () in
    let v = setup i in
    setup_times := !setup_times @ [ now () -. t0 ];
    if i + 1 < n then begin
      teardown v;
      go (i + 1)
    end
    else v
  in
  go 0

(* ------------------------------ wire ------------------------------ *)

let mux_error = function
  | Mux.Remote e -> Errors.to_string e
  | Mux.Transport m -> "transport: " ^ m

let reply_of = function
  | Ok (Frame.One (Ok s)) -> Ok s
  | Ok (Frame.One (Error e)) -> Error (Errors.to_string e)
  | Ok _ -> Error "unexpected response shape"
  | Error e -> Error (mux_error e)

let send mux verbs =
  match Mux.send mux (Frame.Single verbs) with
  | Ok t -> t
  | Error e -> fail "send: %s" (mux_error e)

let request mux verbs = Result.map_error mux_error (Mux.request mux verbs)

(* Run requests with at most [depth] in flight; replies in request order. *)
let pipelined mux depth reqs =
  let inflight = Queue.create () in
  let out = ref [] in
  List.iter
    (fun r ->
      if Queue.length inflight >= depth then
        out := reply_of (Mux.await mux (Queue.pop inflight)) :: !out;
      Queue.push (send mux r) inflight)
    reqs;
  Queue.iter (fun t -> out := reply_of (Mux.await mux t) :: !out) inflight;
  List.rev !out

let physical_of_stat text =
  match Str.search_forward (Str.regexp "physical=\\([0-9]+\\)") text 0 with
  | _ -> int_of_string (Str.matched_group 1 text)
  | exception Not_found -> fail "no physical= in stat reply %S" text

let connect_remote port =
  ok "connect" (Remote.connect ~host:"127.0.0.1" ~port ())

(* ---------------------------- workloads ---------------------------- *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  work : string;
  extra : (string, J.t) Hashtbl.t;  (** workload-level facts *)
}

let fact c k v = Hashtbl.replace c.extra k v

let fresh_dir c name =
  let d = Filename.concat c.work name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let rng_for c salt = Prng.create (Int64.of_int ((c.seed * 7919) + salt))

let store_counts store =
  let s = Store.stats store in
  (s.Store.puts, s.Store.dedup_hits, s.Store.logical_bytes)

(* Exact per-edit counts are taken over this many edits at the start of
   the first measured phase, so one seed gives one answer. *)
let exact_edits = 1000

(* edit-map: an in-process 50k-row map, 80% head-get + find, 20% point
   edit + commit, Zipf(0.99) keys.  The application saves its branch table
   every 50 commits, inside the commit that triggers it. *)
let edit_map c =
  let rows = 50_000 in
  let rng = rng_for c 1 in
  let keys = Array.init rows (Printf.sprintf "row%06d") in
  let init = Array.map (fun _ -> random_string rng 40) keys in
  let hot = shuffle rng (Array.init rows Fun.id) in
  let setup i =
    let root = fresh_dir c (Printf.sprintf "editmap-%d" i) in
    let fb = ok "open" (Persistent.open_ ~root ()) in
    let m =
      Pmap.of_bindings (FB.store fb)
        (Array.to_list (Array.mapi (fun i k -> (k, init.(i))) keys))
    in
    ignore (ok "commit" (FB.put fb ~key:"map" (Value.Map m)));
    ok "save" (Persistent.save ~root fb);
    (root, fb, m)
  in
  let root, fb, m0 =
    setups 5 setup (fun (root, _, _) -> Persistent.close ~root; rm_rf root)
  in
  let store = FB.store fb in
  fact c "stored_bytes" (J.int (Store.stats store).Store.physical_bytes);
  fact c "user_bytes"
    (J.int (Array.fold_left (fun a k -> a + String.length k + 40) 0 keys));
  let model = Hashtbl.create rows in
  Array.iteri (fun i k -> Hashtbl.replace model k init.(i)) keys;
  let m = ref m0 in
  let writes = ref 0 in
  let counted = ref 0 in
  let mix rng zipf () =
    let key = keys.(hot.(Zipf.next zipf)) in
    if Prng.next_float rng < 0.8 then
      op "read"
        (fun () -> lookup fb key)
        (fun got -> got = Some (Hashtbl.find model key))
    else begin
      let v = random_string rng 40 in
      op "write"
        (fun () ->
          let exact = !detail && !counted < exact_edits in
          let before = if exact then store_counts store else (0, 0, 0) in
          let m' = call "postree" "update" (fun () -> Pmap.put !m key v) in
          if exact then begin
            let p0, d0, b0 = before and p1, d1, b1 = store_counts store in
            incr counted;
            count_exact "exact.edits" 1.;
            count_exact "exact.chunk_puts" (float_of_int (p1 - p0));
            count_exact "exact.dedup_hits" (float_of_int (d1 - d0));
            count_exact "exact.bytes_hashed" (float_of_int (b1 - b0))
          end;
          let r = call "core" "commit" (fun () -> FB.put fb ~key:"map" (Value.Map m')) in
          incr writes;
          let saved =
            if !writes mod 50 = 0 then
              call "persist" "save" (fun () -> Persistent.save ~root fb)
            else Ok ()
          in
          (m', r, saved))
        (fun (m', r, saved) ->
          match (r, saved) with
          | Ok _, Ok () ->
            m := m';
            Hashtbl.replace model key v;
            true
          | _ -> false)
    end
  in
  let rng = rng_for c 2 in
  let zipf = Zipf.create rng ~n:rows in
  prewarm_map fb;
  measure ~trace:c.trace ~warmup:1.0 ~name:"mix" ~seconds:c.seconds
    ~remote:(fun () -> []) (mix rng zipf);
  if c.trace && !counted < exact_edits then
    fail "run too short: fewer than %d edits" exact_edits;
  Persistent.close ~root

(* wire-kv: a forkbase serve child and one Mux connection; 20k keys with
   100-byte values; 90% GET / 10% PUT with Zipf keys.  Depth 1 gives the
   latencies, depth 32 the throughput. *)
let wire_kv c =
  let nkeys = 20_000 in
  let rng = rng_for c 1 in
  let keys = Array.init nkeys (Printf.sprintf "key%05d") in
  let init = Array.map (fun _ -> random_string rng 100) keys in
  let hot = shuffle rng (Array.init nkeys Fun.id) in
  let setup i =
    let root = fresh_dir c (Printf.sprintf "wire-%d" i) in
    let srv = spawn_server ~exe:c.exe ~root in
    let mux =
      match Mux.connect ~host:"127.0.0.1" ~port:srv.port () with
      | Ok m -> m
      | Error _ -> fail "mux connect"
    in
    let replies =
      pipelined mux 32
        (Array.to_list
           (Array.mapi (fun i k -> [ "put"; k; "master"; init.(i) ]) keys))
    in
    List.iter (function Ok _ -> () | Error e -> fail "load: %s" e) replies;
    (srv, mux)
  in
  let srv, mux =
    setups 3 setup (fun (srv, mux) ->
        Mux.close mux;
        stop_server srv;
        rm_rf srv.root)
  in
  engine_pid := string_of_int srv.pid;
  let stored =
    match request mux [ "stat" ] with
    | Ok s -> physical_of_stat s
    | Error e -> fail "stat: %s" e
  in
  fact c "stored_bytes" (J.int stored);
  fact c "user_bytes"
    (J.int (Array.fold_left (fun a k -> a + String.length k + 100) 0 keys));
  let model = Hashtbl.create nkeys in
  Array.iteri (fun i k -> Hashtbl.replace model k init.(i)) keys;
  (* Every key read once before timing, for the same reason as
     [prewarm_map]. *)
  List.iteri
    (fun i r -> if r <> Ok init.(i) then fail "prewarm: wrong value for %s" keys.(i))
    (pipelined mux 32
       (Array.to_list (Array.map (fun k -> [ "get"; k; "master" ]) keys)));
  let remote () =
    match request mux [ "metrics" ] with
    | Ok text -> [ ("server", text) ]
    | Error e -> fail "metrics: %s" e
  in
  let rng = rng_for c 2 in
  let zipf = Zipf.create rng ~n:nkeys in
  let draw () =
    let key = keys.(hot.(Zipf.next zipf)) in
    if Prng.next_float rng < 0.9 then (key, None)
    else (key, Some (random_string rng 100))
  in
  let depth1 () =
    match draw () with
    | key, None ->
      op "read"
        (fun () -> call "net" "get" (fun () -> request mux [ "get"; key; "master" ]))
        (fun r -> r = Ok (Hashtbl.find model key))
    | key, Some v ->
      op "write"
        (fun () -> call "net" "put" (fun () -> request mux [ "put"; key; "master"; v ]))
        (fun r ->
          match r with
          | Ok _ ->
            Hashtbl.replace model key v;
            true
          | Error _ -> false)
  in
  (* Depth 1 gets 40% of the time: its median has samples to spare, the
     depth-32 rate is the noisier figure. *)
  measure ~trace:c.trace ~warmup:0.5 ~name:"depth1" ~seconds:(0.4 *. c.seconds)
    ~remote depth1;
  (* Depth 32: one caller keeps 32 requests in flight.  The server may run
     pipelined requests out of order, so a GET may answer with the value
     before or after any PUT of its key that was in flight meanwhile; two
     PUTs of one key are never in flight together. *)
  let depth = 32 in
  let inflight = Queue.create () in
  let pending_put = Hashtbl.create 64 in
  let gets_of_key = Hashtbl.create 64 in
  let next_sample = ref 0. in
  let complete () =
    let ticket, t0, key, kind = Queue.pop inflight in
    let r = call "net" "await" (fun () -> reply_of (Mux.await mux ticket)) in
    let p = !cur in
    let t1 = now () in
    Dyn.push (find_or_add p.samples "pipelined" Dyn.create) ((t1 -. t0) *. 1e6);
    Dyn.push p.done_at (t1 -. p.t0);
    Dyn.push p.lat_at ((t1 -. t0) *. 1e6);
    p.ops <- p.ops + 1;
    let good =
      match kind with
      | `Get accept ->
        (match Hashtbl.find_opt gets_of_key key with
        | Some l ->
          Hashtbl.replace gets_of_key key (List.filter (fun a -> a != accept) l)
        | None -> ());
        (match r with Ok v -> List.mem v !accept | Error _ -> false)
      | `Put v ->
        Hashtbl.remove pending_put key;
        (match r with
        | Ok _ ->
          Hashtbl.replace model key v;
          true
        | Error _ -> false)
    in
    if not good then p.failed <- p.failed + 1
  in
  let depth32 () =
    (* Bookkeeping between calls is the benchmark's own time. *)
    (if !spans then in_span "bench" "bench.step" else fun f -> f ())
    @@ fun () ->
    if Queue.length inflight >= depth then complete ();
    (* Sample the server's worker queue now and then while it is loaded
       (per-call timing mode only; the untraced run never does this). *)
    if !detail && now () >= !next_sample then begin
      next_sample := now () +. 0.25;
      match request mux [ "metrics" ] with
      | Ok text -> (
        match
          Str.search_forward
            (Str.regexp "^fb_net_loop_worker_queue_depth \\([-0-9.e+]+\\)")
            text 0
        with
        | _ ->
          count "net.worker_queue_depth" (float_of_string (Str.matched_group 1 text));
          count "net.worker_queue_samples" 1.
        | exception Not_found -> ())
      | Error _ -> ()
    end;
    let key, w = draw () in
    (match w with
    | Some _ -> while Hashtbl.mem pending_put key do complete () done
    | None -> ());
    let t0 = now () in
    match w with
    | None ->
      let accept =
        ref
          (Hashtbl.find model key
          :: Option.to_list (Hashtbl.find_opt pending_put key))
      in
      Hashtbl.replace gets_of_key key
        (accept :: Option.value ~default:[] (Hashtbl.find_opt gets_of_key key));
      let t = call "net" "send" (fun () -> send mux [ "get"; key; "master" ]) in
      Queue.push (t, t0, key, `Get accept) inflight
    | Some v ->
      Hashtbl.replace pending_put key v;
      List.iter
        (fun a -> a := v :: !a)
        (Option.value ~default:[] (Hashtbl.find_opt gets_of_key key));
      let t = call "net" "send" (fun () -> send mux [ "put"; key; "master"; v ]) in
      Queue.push (t, t0, key, `Put v) inflight
  in
  let phase32 ~detailed ~traced name =
    run_phase ~warmup:0.5 ~name ~detailed ~traced ~seconds:(0.6 *. c.seconds)
      ~remote:(fun () ->
        (* Drain first, so no request straddles a registry dump. *)
        while not (Queue.is_empty inflight) do complete () done;
        remote ())
      depth32
  in
  if c.trace then begin
    phase32 ~detailed:true ~traced:false "depth32";
    phase32 ~detailed:false ~traced:true "depth32.traced"
  end
  else phase32 ~detailed:false ~traced:false "depth32";
  Mux.close mux;
  stop_server srv

(* archive-sync: a ~4 MB CSV through a series of versions alternating
   point cell edits and row appends; each version is committed as a table
   and as a raw blob, saved, and pushed to a forkbase serve peer. *)
let archive_versions = 20

let archive_sync c =
  let csv0 =
    Csvgen.generate_of_size ~seed:(Int64.of_int c.seed) ~target_bytes:4_000_000 ()
  in
  let rows0 = Csv.parse_exn csv0 in
  let setup i =
    let peer = spawn_server ~exe:c.exe ~root:(fresh_dir c (Printf.sprintf "peer-%d" i)) in
    let remote = connect_remote peer.port in
    let root = fresh_dir c (Printf.sprintf "archive-%d" i) in
    let fb = ok "open" (Persistent.open_ ~root ()) in
    let store = FB.store fb in
    let t = match Table.of_csv store csv0 with Ok t -> t | Error e -> fail "of_csv: %s" e in
    ignore (ok "commit" (FB.put fb ~key:"table" (Value.Table t)));
    ignore (ok "commit" (FB.put fb ~key:"blob" (Value.blob_of_string store csv0)));
    ok "save" (Persistent.save ~root fb);
    ignore (ok "push" (Remote.push remote fb ~key:"table"));
    ignore (ok "push" (Remote.push remote fb ~key:"blob"));
    (peer, remote, root, fb)
  in
  let peer, remote, root, fb =
    setups 3 setup (fun (peer, remote, root, _) ->
        Remote.close remote;
        Persistent.close ~root;
        stop_server peer;
        rm_rf peer.root;
        rm_rf root)
  in
  let store = FB.store fb in
  let rows = ref rows0 in
  let version = ref 0 in
  let user_bytes = ref (2 * String.length csv0) in
  let last_csv = ref csv0 in
  let step () =
    incr version;
    let v = !version in
    let edit_seed = Int64.of_int ((c.seed * 1000) + v) in
    (* Making the next version's CSV is the user's work, not the
       program's: it stays outside the timed operation. *)
    let csv =
      call "bench" "next_csv" (fun () ->
          rows :=
            if v mod 2 = 1 then
              Edits.point_edit_cells ~seed:edit_seed ~cells:200 !rows
            else Edits.append_rows ~seed:edit_seed ~rows:100 !rows;
          Csv.render !rows)
    in
    let bytes = 2 * String.length csv in
    op "version"
      (fun () ->
        let t0 = now () in
        let t =
          call "types" "table_ingest" (fun () ->
              match Table.of_csv store csv with Ok t -> t | Error e -> fail "of_csv: %s" e)
        in
        let u1 = call "core" "commit" (fun () -> FB.put fb ~key:"table" (Value.Table t)) in
        let b = call "postree" "blob_ingest" (fun () -> Value.blob_of_string store csv) in
        let u2 = call "core" "commit" (fun () -> FB.put fb ~key:"blob" b) in
        let ingest = now () -. t0 in
        let saved = call "persist" "save" (fun () -> Persistent.save ~root fb) in
        let t1 = now () in
        let p1 = call "sync" "push" (fun () -> Remote.push remote fb ~key:"table") in
        let p2 = call "sync" "push" (fun () -> Remote.push remote fb ~key:"blob") in
        let push = now () -. t1 in
        (u1, u2, saved, p1, p2, ingest, push))
      (fun (u1, u2, saved, p1, p2, ingest, push) ->
        Dyn.push (find_or_add !cur.samples "ingest" Dyn.create) (ingest *. 1e6);
        Dyn.push (find_or_add !cur.samples "push" Dyn.create) (push *. 1e6);
        count "ingest_bytes" (float_of_int bytes);
        match (u1, u2, saved, p1, p2) with
        | Ok u1, Ok u2, Ok (), Ok (h1, s1), Ok (h2, s2) ->
          if v <= archive_versions then begin
            user_bytes := !user_bytes + bytes;
            List.iter
              (fun (s : Sync.stats) ->
                count_exact "exact.rounds" (float_of_int s.Sync.rounds);
                count_exact "exact.bytes_moved" (float_of_int s.Sync.bytes_moved);
                count_exact "exact.chunks_skipped" (float_of_int s.Sync.chunks_skipped);
                count_exact "exact.bloom_fp" (float_of_int s.Sync.bloom_fp);
                count_exact "exact.pushes" 1.)
              [ s1; s2 ];
            count_exact "exact.versions" 1.;
            if v = archive_versions then begin
              fact c "stored_bytes" (J.int (Store.stats store).Store.physical_bytes);
              fact c "user_bytes" (J.int !user_bytes)
            end
          end;
          last_csv := csv;
          (* The peer's heads must be the source heads. *)
          let peer key = Remote.head remote ~key in
          Hash.equal h1 u1 && Hash.equal h2 u2
          && (match (peer "table", peer "blob") with
             | Ok a, Ok b -> Hash.equal a u1 && Hash.equal b u2
             | _ -> false)
        | _ -> false)
  in
  let remote_dump () = [ ("peer", ok "metrics" (Remote.metrics remote)) ] in
  (* Never measured again: 20 versions take ~14 s, and this workload's
     figures hold steady without it. *)
  measure ~trace:c.trace ~min_ops:archive_versions ~remeasure:false
    ~name:"versions" ~seconds:c.seconds ~remote:remote_dump step;
  (* One pulled version must render exactly like its source. *)
  let pulled = FB.create (Mem_store.create ()) in
  let p = !cur in
  let check name f =
    p.ops <- p.ops + 1;
    match f () with
    | true -> ()
    | false | (exception _) ->
      prerr_endline ("fbbench: check failed: " ^ name);
      p.failed <- p.failed + 1
  in
  check "pulled table equals source" (fun () ->
      ignore (ok "pull" (Remote.pull remote pulled ~key:"table"));
      let csv_of fb =
        match ok "get" (FB.get fb ~key:"table") with
        | Value.Table t -> Table.to_csv t
        | _ -> fail "not a table"
      in
      csv_of pulled = csv_of fb);
  check "pulled blob equals source" (fun () ->
      ignore (ok "pull" (Remote.pull remote pulled ~key:"blob"));
      match ok "get" (FB.get pulled ~key:"blob") with
      | Value.Blob b -> Pblob.to_string b = !last_csv
      | _ -> false);
  Remote.close remote;
  Persistent.close ~root;
  stop_server peer

(* cluster-read: three forkbase serve members behind the cluster backend
   at W=2 and a 200k-row map; uniform lookups while healthy, then one
   member is killed and the lookups go on. *)
let cluster_read c =
  let rows = 200_000 in
  let rng = rng_for c 1 in
  let keys = Array.init rows (Printf.sprintf "row%07d") in
  let values = Array.map (fun _ -> random_string rng 40) keys in
  let setup i =
    let members =
      List.init 3 (fun j ->
          spawn_server ~exe:c.exe
            ~root:(fresh_dir c (Printf.sprintf "member-%d-%d" i j)))
    in
    let nodes =
      String.concat ","
        (List.map (fun s -> Printf.sprintf "127.0.0.1:%d" s.port) members)
    in
    let root = fresh_dir c (Printf.sprintf "router-%d" i) in
    let fb =
      ok "open cluster"
        (Persistent.open_ ~backend:"cluster"
           ~params:[ ("nodes", nodes); ("replicas", "2") ]
           ~root ())
    in
    let m =
      Pmap.of_bindings (FB.store fb)
        (Array.to_list (Array.mapi (fun i k -> (k, values.(i))) keys))
    in
    ignore (ok "commit" (FB.put fb ~key:"map" (Value.Map m)));
    ok "save" (Persistent.save ~root fb);
    (members, root, fb)
  in
  let members, root, fb =
    setups 3 setup (fun (members, root, _) ->
        Persistent.close ~root;
        List.iter (fun s -> stop_server s; rm_rf s.root) members;
        rm_rf root)
  in
  let handles = List.map (fun s -> (s, connect_remote s.port)) members in
  let stored =
    List.fold_left
      (fun a (_, r) -> a + physical_of_stat (ok "stat" (Remote.stat r)))
      0 handles
  in
  fact c "stored_bytes" (J.int stored);
  fact c "user_bytes"
    (J.int (Array.fold_left (fun a k -> a + String.length k + 40) 0 keys));
  let remote () =
    List.filter_map
      (fun (s, r) ->
        if s.alive then
          Some (Printf.sprintf "member-%d" s.port, ok "metrics" (Remote.metrics r))
        else None)
      handles
  in
  let reads cls rng () =
    let i = Prng.next_int rng rows in
    let key = keys.(i) in
    op cls (fun () -> lookup fb key) (fun got -> got = Some values.(i))
  in
  let half = c.seconds /. 2. in
  prewarm_map fb;
  measure ~trace:c.trace ~warmup:1.0 ~name:"healthy" ~seconds:half ~remote
    (reads "read" (rng_for c 2));
  let victim = List.nth members (c.seed mod 3) in
  fact c "killed_member_port" (J.int victim.port);
  kill_server victim;
  (* No warm-up here: the first reads after the kill are the ones that
     fail over. *)
  measure ~trace:c.trace ~name:"degraded" ~seconds:half ~remote
    (reads "degraded_read" (rng_for c 3));
  List.iter (fun (_, r) -> Remote.close r) handles;
  Persistent.close ~root;
  List.iter stop_server members

(* ------------------------------- main ------------------------------- *)

let workloads =
  [ ("edit-map", edit_map); ("wire-kv", wire_kv); ("archive-sync", archive_sync);
    ("cluster-read", cluster_read) ]

(* Latencies travel as whole nanoseconds and completion times as whole
   microseconds, which print compactly. *)
let whole scale a =
  J.Array (Array.to_list (Array.map (fun x -> J.Number (Float.round (x *. scale))) a))

let phase_json p =
  let dyns tbl =
    J.Object
      (List.map (fun (k, d) -> (k, whole 1e3 (Dyn.to_array d))) (sorted_bindings tbl))
  in
  let refs tbl =
    J.Object (List.map (fun (k, r) -> (k, J.Number !r)) (sorted_bindings tbl))
  in
  let texts l = J.Object (List.map (fun (k, t) -> (k, J.String t)) l) in
  let registry dump =
    match J.parse dump with Ok v -> v | Error e -> fail "registry dump: %s" e
  in
  J.Object
    [ ("name", J.String p.p_name); ("traced", J.Bool p.p_traced);
      ("wall_s", J.Number p.wall_s); ("steal_pct", J.Number p.steal_pct);
      ("ops", J.int p.ops); ("failed", J.int p.failed);
      ("samples_ns", dyns p.samples); ("calls_ns", dyns p.comps);
      ("self_us", refs p.self_us); ("counters", refs p.counters);
      ("done_at_us", whole 1e6 (Dyn.to_array p.done_at));
      ("lat_ns", whole 1e3 (Dyn.to_array p.lat_at));
      ("local_before", registry p.local_before);
      ("local_after", registry p.local_after);
      ("remote_before", texts p.remote_before);
      ("remote_after", texts p.remote_after) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "" and work = ref "" and out = ref "" and chrome = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--forkbase", Arg.Set_string exe, "PATH to the forkbase binary");
      ("--work", Arg.Set_string work, "DIR for stores (removed at exit)");
      ("--out", Arg.Set_string out, "FILE for the JSON result");
      ("--chrome", Arg.Set_string chrome, "FILE for the Chrome trace (traced runs)");
      ("--server-cpu", Arg.Set_int server_cpu, "CPU to pin forkbase serve to") ]
    (fun a -> raise (Arg.Bad a))
    "fbbench --workload W --seed N --seconds S --trace 0|1 --forkbase PATH --work DIR --out FILE";
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        prerr_endline ("fbbench: refusing to run with " ^ v ^ " set");
        exit 2
      end)
    [ "FB_OBS"; "FB_NODE_CACHE"; "FB_SLOW_MS" ];
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("fbbench: unknown workload " ^ !workload);
      exit 2
  in
  if !exe = "" || !work = "" || !out = "" then begin
    prerr_endline "fbbench: --forkbase, --work and --out are required";
    exit 2
  end;
  Fb_net.Cluster.register_provider ();
  (* Children and stores go on every exit path, signals included. *)
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  work_dir := !work;
  if !trace = 1 then Obs.set_span_capacity 20_000;
  let c =
    { seed = !seed; seconds = !seconds; trace = !trace = 1; exe = !exe;
      work = !work; extra = Hashtbl.create 7 }
  in
  let t0 = now () in
  (try run c
   with e ->
     prerr_endline ("fbbench: " ^ !workload ^ " failed: " ^ Printexc.to_string e);
     exit 1);
  let total_s = now () -. t0 in
  if !trace = 1 && !chrome <> "" then
    Out_channel.with_open_bin !chrome (fun oc ->
        output_string oc (Obs.dump_chrome_trace ()));
  let cfg = Log_store.default_config in
  let doc =
    J.Object
      [ ("workload", J.String !workload); ("seed", J.int !seed);
        ("seconds", J.Number !seconds); ("trace", J.int !trace);
        ("total_s", J.Number total_s);
        ( "env",
          J.Object
            [ ("ocaml", J.String Sys.ocaml_version);
              ("node_cache_capacity", J.int Node_cache.default_capacity);
              ( "flush_policy",
                J.String
                  (Printf.sprintf
                     "log engine defaults: fsync=%b group_chunks=%d \
                      group_window_s=%g"
                     cfg.Log_store.fsync cfg.Log_store.group_chunks
                     cfg.Log_store.group_window_s) ) ] );
        ("setup_s", J.Array (List.map (fun f -> J.Number f) !setup_times));
        ( "facts",
          J.Object
            (("peak_rss_kb", J.int !peak_rss_kb) :: sorted_bindings c.extra) );
        ( "exact",
          J.Object (List.map (fun (k, r) -> (k, J.Number !r)) (sorted_bindings exact)) );
        ("phases", J.Array (List.rev_map phase_json !phases)) ]
  in
  Out_channel.with_open_bin !out (fun oc -> output_string oc (J.to_string doc))
