(** Integrity-checking store wrapper — tamper {e rejection} at read time.

    Wraps any backend so that every [get]/[get_raw] re-hashes the served
    bytes and refuses (returns [None] and counts a violation) anything that
    does not match the requested identity.  This is the paranoid-client
    mode: instead of detecting tampering during an explicit [verify] pass,
    a malicious provider simply cannot get forged bytes past a read. *)

type violations = {
  mutable rejected_reads : int;
      (** reads whose bytes did not hash to the requested id *)
  mutable last_offender : Fb_hash.Hash.t option;
}

val seen_generation : int
(** Ids per generation of a [once]-mode wrapper's trusted set. *)

val wrap : ?once:bool -> Store.t -> Store.t * violations
(** [wrap inner] — same contents, verified reads.  Writes pass through
    (they are self-addressed already).  [mem] also answers through the
    checked read path: a chunk whose stored bytes fail verification is
    reported absent (and counted as a violation), never vouched for.

    [once] (default [false]) verifies each chunk the first time its bytes
    are served and trusts repeats — the cheap clean path when the threat
    is media damage rather than a malicious provider that could swap bytes
    between reads.  The set of trusted ids is bounded (two generations of
    a few thousand ids, refreshed on use), so an id not served for a long
    while is verified again rather than remembered forever.  The default
    re-hashes every read. *)
