(** In-memory results store: the latest per-AS damping-probability
    estimates and health state of every campaign the service has seen,
    plus the service-level rollup — what a status endpoint would serve.

    Entries are mutated only by the service (under its mutex); readers go
    through the service's snapshot functions. *)

open Because_bgp

type estimate = {
  asn : Asn.t;
  mean : float;       (** Posterior mean damping probability. *)
  lo : float;         (** 95 % HDPI lower edge. *)
  hi : float;         (** 95 % HDPI upper edge. *)
  category : int;     (** Final category 1-5 (after pinpointing). *)
  damping : bool;     (** Category 4/5 — flagged as damping. *)
}

type health =
  | Queued
  | Running
  | Interrupted
      (** Drained or crashed mid-run with a durable checkpoint; a warm
          start resumes it bit-for-bit. *)
  | Done of Because_recover.Supervise.status

val health_label : health -> string
(** [queued], [running], [interrupted], or the
    {!Because_recover.Supervise.status_label} ([healthy] / [degraded] /
    [insufficient]). *)

type entry = {
  spec : Spec.t;
  seq : int;  (** Admission sequence number. *)
  mutable health : health;
  mutable attempts : int;
  mutable estimates : estimate array;
  mutable queue_wait_s : float;  (** Submit-to-claim latency, seconds. *)
  mutable epoch : int;
      (** Streaming campaigns: how many times this id has been (re-)run;
          always 1 for classic campaigns. *)
  mutable warm : bool;
      (** Whether the current epoch warm-started from a posterior seed. *)
  mutable gate_sweeps : int option;
      (** Sweeps (burn-in + gated draws) the last epoch needed to pass the
          R̂ convergence gate; [None] when unknown or never passed. *)
  mutable obs_count : int;
      (** Observations read from the spool file by the last epoch. *)
}

type t

val create : unit -> t
val add : t -> Spec.t -> seq:int -> entry
(** Raises [Invalid_argument] on a duplicate id (admission dedups first). *)

val find : t -> id:string -> entry option
val entries : t -> entry list  (** Ascending admission sequence. *)

val counts : t -> (string * int) list
(** Health-label histogram over all entries, fixed label order. *)

val rollup : t -> Because_recover.Supervise.status
(** Service-level verdict over completed campaigns: [Insufficient] if any
    finished insufficient, else [Degraded] if any finished degraded, else
    [Healthy]; reasons are prefixed with the campaign id. *)

val estimates_of_result :
  Because.Infer.result ->
  categories:(Asn.t * Because.Categorize.t) list ->
  estimate array
(** Per-AS marginals of a pooled posterior joined with final categories;
    [\[||\]] when no sampler run survived.  Shared by the campaign path
    ({!estimates_of_outcome}) and the streaming path. *)

val estimates_of_outcome :
  Because_scenario.Campaign.outcome -> estimate array
(** Per-AS marginals of the campaign's pooled posterior
    ({!Because.Posterior.combined}) joined with the final categories;
    [\[||\]] when inference produced nothing. *)

val report : entry -> string
(** The campaign's durable report: spec line, status, and the sorted
    estimate table.  Deterministic — no timestamps, attempt counts or
    host state — so an interrupted-and-resumed service reproduces the
    uninterrupted report byte-for-byte. *)

val json_escape : string -> string
(** {!Because_telemetry.Manifest.json_escape}: quotes, backslashes and
    every control byte are escaped, so the output is always a valid JSON
    string body. *)

val to_json : t -> draining:bool -> limit:int -> depth:int -> string
(** Service status document: rollup, queue stats, per-campaign health and
    flagged ASs. *)

val matrix : t -> string
(** Compact per-campaign text table (id, health, attempts, flagged ASs) —
    the operator's at-a-glance view. *)
