(** Offline integrity pass (fsck) over a chunk store.

    {!run} makes three passes:

    + {b physical}: every stored blob must hash to its name and decode as
      a chunk; failures are listed in [corrupt];
    + {b quarantine & repair} (skipped under [dry_run]): each corrupt
      blob is handed to the [quarantine] callback (e.g. to copy the bytes
      aside for forensics), then deleted ([quarantined]).  A healthy
      copy taken before the delete is put back ([repaired]): the scrubbed
      store's own when it still serves one (a cluster answers from
      another replica), else the [replica]'s.  Through a cluster the
      delete reaches every member and the put rewrites every owner, so
      a damaged copy is healed wherever it sits.  With no healthy copy
      anywhere the blob lands in [unrepaired];
    + {b logical} (needs [children] and [roots]): walk the Merkle graph
      from [roots]; reachable chunks the store cannot serve even after a
      last-chance replica repair are reported in [missing] (paired with
      the parent that referenced them — a root pairs with itself), and
      healthy chunks nothing reaches are [orphans] (GC candidates, not
      damage).

    The walk uses {!Store.peek} throughout, so scrubbing does not inflate
    workload read counters.

    The chunk layer knows nothing about chunk schemas, so the child
    relation and the root set are parameters; [Fb_core.Forkbase.scrub]
    supplies them from the DAG layer. *)

type report = {
  scanned : int;  (** physical blobs visited *)
  scanned_bytes : int;
  corrupt : Fb_hash.Hash.t list;  (** failed hash check or decode *)
  quarantined : int;  (** corrupt blobs removed from the store *)
  repaired : int;  (** chunks restored from a healthy copy *)
  unrepaired : Fb_hash.Hash.t list;  (** corrupt, and no healthy replica copy *)
  orphans : Fb_hash.Hash.t list;  (** healthy but unreachable from any root *)
  missing : (Fb_hash.Hash.t * Fb_hash.Hash.t) list;
      (** [(parent, child)]: reachable but unservable; roots pair with
          themselves *)
}

val clean : report -> bool
(** Nothing unrepaired and nothing missing — the store holds no
    outstanding damage after this run ([corrupt] may be non-empty when
    everything found was repaired; orphans are garbage, not damage). *)

val pp_report : Format.formatter -> report -> unit

val run :
  ?children:(Chunk.t -> Fb_hash.Hash.t list) ->
  ?roots:Fb_hash.Hash.t list ->
  ?replica:Store.t ->
  ?quarantine:(Fb_hash.Hash.t -> string -> unit) ->
  ?dry_run:bool ->
  Store.t ->
  report
(** [dry_run] (default [false]) reports without deleting or repairing;
    under [dry_run] every corrupt chunk is also listed [unrepaired].
    Without [children]/[roots] only the physical passes run ([orphans]
    and [missing] stay empty). *)

(** {1 Log-backend generations}

    A {!Log_store} root has integrity structure {!run} cannot see through
    the [Store.t] surface: record CRC seals, the checkpoint-vs-replay
    agreement, torn tails and leftover generations from a crashed
    compaction.  These delegate to the log engine's offline verifier. *)

val fsck_log : root:string -> (Log_store.fsck_report, string) result
(** Read-only fsck of a log root (see {!Log_store.fsck}). *)

val fsck_log_clean : Log_store.fsck_report -> bool
val pp_fsck_log : Format.formatter -> Log_store.fsck_report -> unit
