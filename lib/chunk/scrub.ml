module Hash = Fb_hash.Hash

type report = {
  scanned : int;
  scanned_bytes : int;
  corrupt : Hash.t list;
  quarantined : int;
  repaired : int;
  unrepaired : Hash.t list;
  orphans : Hash.t list;
  missing : (Hash.t * Hash.t) list;
}

(* A run that found damage but repaired all of it leaves a clean store:
   judge by what is still outstanding, not by what was discovered. *)
let clean r = r.unrepaired = [] && r.missing = []

let pp_report ppf r =
  Format.fprintf ppf
    "scanned %d chunks (%d bytes): %d corrupt, %d quarantined, %d repaired, \
     %d unrepaired, %d orphans, %d missing"
    r.scanned r.scanned_bytes (List.length r.corrupt) r.quarantined r.repaired
    (List.length r.unrepaired) (List.length r.orphans)
    (List.length r.missing)

(* Log generations need more than the per-chunk hash check [run] applies
   through [Store.iter]: record seals, checkpoint/replay agreement and
   leftover generations are log-level facts.  Delegate to the log engine's
   offline verifier so one scrub entry point covers both backends. *)
let fsck_log ~root = Log_store.fsck ~root
let pp_fsck_log = Log_store.pp_fsck
let fsck_log_clean = Log_store.fsck_clean

let run ?children ?(roots = []) ?replica ?quarantine ?(dry_run = false)
    (store : Store.t) =
  Fb_obs.Obs.with_span "scrub.run"
    ~attrs:[ ("store", store.Store.name) ]
  @@ fun () ->
  (* Pass 1: physical sweep — every stored blob must hash to its name and
     decode as a chunk. *)
  let scanned = ref 0 and scanned_bytes = ref 0 in
  let corrupt = ref [] in
  let good = ref Hash.Set.empty in
  Fb_obs.Obs.with_span "scrub.physical_sweep" (fun () ->
      store.Store.iter (fun id raw ->
          incr scanned;
          scanned_bytes := !scanned_bytes + String.length raw;
          if
            Hash.equal (Hash.of_string raw) id
            && Result.is_ok (Chunk.decode raw)
          then good := Hash.Set.add id !good
          else corrupt := (id, raw) :: !corrupt));
  let corrupt = List.rev !corrupt in
  (* Pass 2: quarantine damaged blobs, then put back a healthy copy: the
     scrubbed store's own when it still serves one (a cluster answers from
     another replica), else the replica's. *)
  let quarantined = ref 0 and repaired = ref 0 in
  let unrepaired = ref [] in
  let healthy_copy (s : Store.t) id =
    match s.Store.peek id with
    | Some raw when Hash.equal (Hash.of_string raw) id ->
      Result.to_option (Chunk.decode raw)
    | Some _ | None -> None
  in
  let replica_copy id = Option.bind replica (fun r -> healthy_copy r id) in
  (* The one repair path.  The delete comes first: content-addressed [put]
     skips names that already exist.  Through a cluster the delete reaches
     every member and the put then rewrites every owner, so no damaged or
     stale copy survives on any of them. *)
  let quarantine_and_restore id healthy =
    if Store.delete store id then incr quarantined;
    match healthy with
    | None -> false
    | Some chunk ->
      ignore (store.Store.put chunk);
      incr repaired;
      good := Hash.Set.add id !good;
      true
  in
  if dry_run then unrepaired := List.map fst corrupt
  else
    List.iter
      (fun (id, raw) ->
        (match quarantine with Some keep -> keep id raw | None -> ());
        (* Take the healthy copy before the delete removes it. *)
        let healthy =
          match healthy_copy store id with
          | Some _ as own -> own
          | None -> replica_copy id
        in
        if not (quarantine_and_restore id healthy) then
          unrepaired := id :: !unrepaired)
      corrupt;
  (* Pass 3: logical sweep — walk the Merkle graph from the roots and
     report reachable chunks the store cannot serve (even after a
     last-chance replica repair), plus healthy chunks nothing reaches. *)
  let missing = ref [] in
  let reachable = ref Hash.Set.empty in
  (match children with
  | None -> ()
  | Some children ->
    let rec visit parent id =
      if not (Hash.Set.mem id !reachable) then begin
        reachable := Hash.Set.add id !reachable;
        let raw =
          match store.Store.peek id with
          | Some raw when Hash.equal (Hash.of_string raw) id -> Some raw
          | _ ->
            let healthy = if dry_run then None else replica_copy id in
            if Option.is_some healthy && quarantine_and_restore id healthy
            then store.Store.peek id
            else None
        in
        match raw with
        | None -> missing := (parent, id) :: !missing
        | Some raw -> (
          match Chunk.decode raw with
          | Error _ -> missing := (parent, id) :: !missing
          | Ok chunk -> List.iter (visit id) (children chunk))
      end
    in
    Fb_obs.Obs.with_span "scrub.logical_sweep" (fun () ->
        List.iter (fun root -> visit root root) roots));
  let orphans =
    if roots = [] || children = None then []
    else Hash.Set.elements (Hash.Set.diff !good !reachable)
  in
  { scanned = !scanned;
    scanned_bytes = !scanned_bytes;
    corrupt = List.map fst corrupt;
    quarantined = !quarantined;
    repaired = !repaired;
    unrepaired = List.rev !unrepaired;
    orphans;
    missing = List.rev !missing }
