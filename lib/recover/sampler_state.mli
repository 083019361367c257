(** Serialized form of a sampler's mid-run state.

    One variant per resumable sampler, wrapping the transparent state
    record the sampler itself defines.  The encode/decode pair is the only
    place the on-disk layout of MCMC state is known.

    Kept draws are stored flat (row-major) under tag 3 (MH) or 4 (HMC).
    {!decode} rejects every other tag, including the retired row-array
    tags 0–2 and the Gibbs tag 5. *)

type t =
  | Mh of Because_mcmc.Metropolis.state
  | Hmc of Because_mcmc.Hmc.state

val encode : Codec.writer -> t -> unit

val decode : Codec.reader -> t
(** Raises {!Codec.Malformed} on an unrecognized or inconsistent
    serialization. *)
