module Dist = Because_stats.Dist

type t = Uniform | Beta of { a : float; b : float } | Near_zero

let default = Beta { a = 0.5; b = 0.5 }

let near_zero_a = 1.0
let near_zero_b = 20.0

let log_pdf t p =
  match t with
  | Uniform -> if p < 0.0 || p > 1.0 then neg_infinity else 0.0
  | Beta { a; b } -> Dist.beta_log_pdf ~a ~b p
  | Near_zero -> Dist.beta_log_pdf ~a:near_zero_a ~b:near_zero_b p

let grad_beta ~a ~b p =
  let p = Float.max 1e-12 (Float.min (1.0 -. 1e-12) p) in
  ((a -. 1.0) /. p) -. ((b -. 1.0) /. (1.0 -. p))

let grad_log_pdf t p =
  match t with
  | Uniform -> 0.0
  | Beta { a; b } -> grad_beta ~a ~b p
  | Near_zero -> grad_beta ~a:near_zero_a ~b:near_zero_b p

(* One loop over all nodes, so [grad_log_pdf] inlines into it: a call per
   node from another module would box its argument and its result. *)
let grad_log_pdf_into priors x g =
  for i = 0 to Array.length priors - 1 do
    Array.unsafe_set g i (grad_log_pdf priors.(i) x.(i))
  done

let pp fmt = function
  | Uniform -> Format.pp_print_string fmt "uniform"
  | Beta { a; b } -> Format.fprintf fmt "beta(%.2f,%.2f)" a b
  | Near_zero -> Format.pp_print_string fmt "near-zero"
