(** Prior distributions over per-AS damping proportions (§3.2).

    The paper tested uniform and Beta priors and found the data dominates for
    most ASs; a good prior mainly sharpens uncertainty quantification.
    {!default} is the U-shaped Jeffreys Beta(½, ½): most ASs either damp a
    session or don't, so mass concentrates near 0 and 1 — this is the prior
    shape recovered for data-starved ASs in Fig. 9(d).

    [Point_mass_at_zero] is used for nodes known a priori not to show the
    property (the Beacon origin ASs, whose upstreams were verified not to
    damp): implemented as a very sharp Beta towards 0 rather than a true
    point mass so samplers stay ergodic. *)

type t =
  | Uniform
  | Beta of { a : float; b : float }
  | Near_zero  (** Sharp evidence that the node does not show the property. *)

val default : t
(** [Beta {a = 0.5; b = 0.5}]. *)

val log_pdf : t -> float -> float
val grad_log_pdf : t -> float -> float

val grad_log_pdf_into : t array -> float array -> float array -> unit
(** [grad_log_pdf_into priors x g] sets [g.(i)] to
    [grad_log_pdf priors.(i) x.(i)] for every [i] of [priors], without
    allocating. *)

val pp : Format.formatter -> t -> unit
