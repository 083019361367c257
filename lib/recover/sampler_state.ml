(* Serialization for the samplers' transparent state records.

   The mcmc layer defines what a mid-run state *is*; this module defines
   what it looks like on disk.  Keeping the two apart means the samplers
   never learn about envelopes or checksums, and the wire format can
   version independently of the sampler internals.

   Tags 3 (MH) and 4 (HMC) store the kept draws as one flat row-major
   float array, matching the samplers' in-memory representation.  Any
   other tag — including the retired row-array tags 0–2 and the Gibbs
   tag 5 — is rejected as malformed, which the resume path turns into a
   fresh chain. *)

module Metropolis = Because_mcmc.Metropolis
module Hmc = Because_mcmc.Hmc

type t = Mh of Metropolis.state | Hmc of Hmc.state

let encode_mh w (s : Metropolis.state) =
  Codec.int w s.s_sweep;
  Codec.string w s.s_rng;
  Codec.float_array w s.s_current;
  Codec.float_array w s.s_steps;
  Codec.float w s.s_log_post;
  Codec.int_array w s.s_accept_window;
  Codec.float_array w s.s_kept;
  Codec.int w s.s_accepted_post;
  Codec.int w s.s_proposed_post;
  Codec.option w Codec.float_array s.s_cache

let decode_mh r : Metropolis.state =
  let s_sweep = Codec.read_int r in
  let s_rng = Codec.read_string r in
  let s_current = Codec.read_float_array r in
  let s_steps = Codec.read_float_array r in
  let s_log_post = Codec.read_float r in
  let s_accept_window = Codec.read_int_array r in
  let s_kept = Codec.read_float_array r in
  let s_accepted_post = Codec.read_int r in
  let s_proposed_post = Codec.read_int r in
  let s_cache = Codec.read_option r Codec.read_float_array in
  {
    s_sweep;
    s_rng;
    s_current;
    s_steps;
    s_log_post;
    s_accept_window;
    s_kept;
    s_accepted_post;
    s_proposed_post;
    s_cache;
  }

let encode_hmc w (s : Hmc.state) =
  Codec.int w s.s_iter;
  Codec.string w s.s_rng;
  Codec.float_array w s.s_position;
  Codec.float w s.s_step;
  Codec.float w s.s_log_post;
  Codec.int w s.s_accept_window;
  Codec.float_array w s.s_kept;
  Codec.int w s.s_accepted_post;
  Codec.int w s.s_proposed_post

let decode_hmc r : Hmc.state =
  let s_iter = Codec.read_int r in
  let s_rng = Codec.read_string r in
  let s_position = Codec.read_float_array r in
  let s_step = Codec.read_float r in
  let s_log_post = Codec.read_float r in
  let s_accept_window = Codec.read_int r in
  let s_kept = Codec.read_float_array r in
  let s_accepted_post = Codec.read_int r in
  let s_proposed_post = Codec.read_int r in
  {
    s_iter;
    s_rng;
    s_position;
    s_step;
    s_log_post;
    s_accept_window;
    s_kept;
    s_accepted_post;
    s_proposed_post;
  }

let encode w = function
  | Mh s ->
      Codec.u8 w 3;
      encode_mh w s
  | Hmc s ->
      Codec.u8 w 4;
      encode_hmc w s

let decode r =
  match Codec.read_u8 r with
  | 3 -> Mh (decode_mh r)
  | 4 -> Hmc (decode_hmc r)
  | tag -> raise (Codec.Malformed (Printf.sprintf "unknown sampler tag %d" tag))
