(** The positional POS-Tree shared by {!Pblob} and {!Plist}.

    Sequence trees index by position instead of key: an internal
    ([Seq_index]) node entry carries the element count of its child
    sub-tree, so the n-th element is found by walking cumulative counts.
    Node boundaries are pattern-defined exactly as in the keyed tree,
    giving the same structural invariance and page sharing.

    Blobs and lists are the same tree with a different leaf format (paper
    §II-A).  A {!codec} describes one leaf format over ['r], a {e run} of
    consecutive elements (a byte string for blobs, a string list for
    lists).  This module owns everything that does not depend on it:
    building, splicing with boundary resynchronization, the
    chunk-row-aligned {!diff}, {!node_hashes}, {!validate}'s integrity and
    count walk, and the range walk behind {!read}, {!prove} and
    {!verify}. *)

type index_entry = { child : Fb_hash.Hash.t; count : int }
(** One entry of the leaf row or of an index node: a child and the number
    of elements beneath it. *)

type t = { store : Fb_chunk.Store.t; root : Fb_hash.Hash.t option }
(** A tree handle; [None] is the empty sequence. *)

type range_diff = {
  old_pos : int; old_len : int;   (** replaced range in the old sequence *)
  new_pos : int; new_len : int;   (** replacement range in the new one *)
}

type 'r leaf_chunker = {
  feed : 'r -> unit;       (** absorb a run, cutting leaves as patterns fire *)
  pending : unit -> bool;  (** elements fed since the last cut *)
  finish : unit -> unit;   (** cut the trailing leaf, if any *)
}

type 'r codec = {
  name : string;  (** module name, prefixed to [Invalid_argument] messages *)
  kind : Fb_chunk.Chunk.kind;  (** the leaf chunk kind *)
  length : 'r -> int;  (** elements in a run *)
  decode : string -> 'r;
      (** leaf payload to run; @raise Postree.Corrupt if malformed *)
  encode : 'r -> string;  (** run to leaf payload *)
  slice : 'r -> int -> int -> 'r;  (** [slice r off len], by element *)
  chunker : ('r -> unit) -> 'r leaf_chunker;
      (** a content-defined leaf chunker handing each cut leaf's run to
          its argument *)
  check_leaf : is_last:bool -> 'r -> (unit, string) result;
      (** the leaf's boundary is the one the chunker would place: a
          pattern on its final element only, unless it is the last leaf
          of its row or was cut by the size cap *)
}

val of_run : 'r codec -> Fb_chunk.Store.t -> 'r -> t

val length : 'r codec -> t -> int

val leaf_row : 'r codec -> t -> index_entry list
(** @raise Postree.Corrupt on missing or undecodable chunks. *)

val iter_leaves : 'r codec -> t -> ('r -> unit) -> unit

val read : 'r codec -> t -> pos:int -> len:int -> 'r list
(** The runs of the leaves overlapping [\[pos, pos+len)], each sliced to
    the range, found by descending through counts.  An empty range yields
    at most one empty run.  No bounds check. *)

val splice : 'r codec -> t -> pos:int -> remove:int -> insert:'r -> t
(** Replace [remove] elements at [pos] with [insert], re-chunking only
    from the first touched leaf to the first old boundary the chunker
    lands on again; every other leaf is reused.  Bit-identical to
    {!of_run} of the edited content.
    @raise Invalid_argument ["<name>.splice: range out of bounds"]. *)

val diff : 'r codec -> t -> t -> range_diff option
(** [None] when equal; otherwise the smallest leaf-aligned replaced range
    (common prefix and suffix leaves pruned by id, without reading
    them). *)

val chunk_count : 'r codec -> t -> int
(** Number of leaves. *)

val node_hashes : t -> Fb_hash.Hash.t list
(** Every chunk of the tree, pre-order. *)

val validate : 'r codec -> t -> (unit, string) result
(** Each chunk is present, hashes to its id and decodes; each child holds
    the element count its parent's entry claims; each leaf passes
    [check_leaf]. *)

(** {1 Range proofs}

    Prover and verifier walk the tree in the same pre-order, descending
    only into children overlapping [\[pos, pos+len)].  The counts driving
    that arithmetic are inside hash-covered index entries, so a forged
    count breaks its parent's hash.  With [tail] a position past
    the end routes through the last child of each node instead, so the
    last leaf proves the bound (single-index list proofs). *)

val prove :
  'r codec -> tail:bool -> t -> pos:int -> len:int ->
  (string list, string) result
(** Encoded chunks, root first.  No bounds check. *)

val verify :
  'r codec -> tail:bool -> root:Fb_hash.Hash.t -> pos:int -> len:int ->
  string list -> ('r list, string) result
(** The sliced runs of the leaves the proof reaches, as in {!read};
    [Error _] if a chunk does not hash to the id its parent names, does
    not decode, or the proof is truncated or has trailing chunks. *)
