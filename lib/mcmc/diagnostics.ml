module Summary = Because_stats.Summary

let autocorrelation xs lag =
  let n = Array.length xs in
  if lag < 0 then invalid_arg "Diagnostics.autocorrelation: negative lag";
  if n < lag + 2 then 0.0
  else begin
    let m = Summary.mean xs in
    let denom = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        denom := !denom +. (d *. d))
      xs;
    if !denom = 0.0 then 0.0
    else begin
      let num = ref 0.0 in
      for i = 0 to n - lag - 1 do
        num := !num +. ((xs.(i) -. m) *. (xs.(i + lag) -. m))
      done;
      !num /. !denom
    end
  end

let effective_sample_size xs =
  let n = Array.length xs in
  if n < 4 then float_of_int n
  else begin
    (* Geyer initial positive sequence over paired lags. *)
    let rec sum_pairs k acc =
      if 2 * k + 1 >= n / 2 then acc
      else begin
        let pair =
          autocorrelation xs ((2 * k) + 1) +. autocorrelation xs ((2 * k) + 2)
        in
        if pair <= 0.0 then acc else sum_pairs (k + 1) (acc +. pair)
      end
    in
    let rho1 = autocorrelation xs 1 in
    let tail = sum_pairs 0 0.0 in
    let tau = 1.0 +. (2.0 *. Float.max 0.0 rho1) +. (2.0 *. tail) in
    let tau = Float.max 1.0 tau in
    float_of_int n /. tau
  end

(* Potential scale reduction from per-chain means and variances over [n]
   draws each — the shared tail of every r-hat variant below, so the array
   and flat-chain paths are numerically identical by construction. *)
let psr ~n means vars =
  let m = Array.length means in
  let w = Summary.mean vars in
  let grand = Summary.mean means in
  let b =
    float_of_int n
    *. (Array.fold_left
          (fun acc mu ->
            let d = mu -. grand in
            acc +. (d *. d))
          0.0 means
       /. float_of_int (m - 1))
  in
  if w <= 0.0 then 1.0
  else begin
    let var_plus =
      ((float_of_int (n - 1) /. float_of_int n) *. w)
      +. (b /. float_of_int n)
    in
    Float.sqrt (var_plus /. w)
  end

let r_hat chains =
  let m = Array.length chains in
  if m < 2 then invalid_arg "Diagnostics.r_hat: need at least two chains";
  let n = Array.length chains.(0) in
  Array.iter
    (fun c ->
      if Array.length c <> n then
        invalid_arg "Diagnostics.r_hat: unequal chain lengths")
    chains;
  if n < 2 then 1.0
  else
    psr ~n (Array.map Summary.mean chains) (Array.map Summary.variance chains)

let split_r_hat xs =
  let n = Array.length xs in
  if n < 4 then 1.0
  else begin
    let half = n / 2 in
    let first = Array.sub xs 0 half in
    let second = Array.sub xs (n - half) half in
    r_hat [| first; second |]
  end

(* --- allocation-free variants over flat chain storage ---

   Mean and variance replicate [Summary.mean] / [Summary.variance]
   (left-to-right sums, n-1 divisor) over a draw window of one coordinate,
   so the flat-chain r-hats return bit-identical values to extracting the
   marginal and calling the array versions — without materialising a
   marginal array per coordinate per chain. *)

type facc = { mutable acc : float }

let window_mean chain i ~pos ~len =
  let a = { acc = 0.0 } in
  for k = pos to pos + len - 1 do
    a.acc <- a.acc +. Chain.value chain k i
  done;
  a.acc /. float_of_int len

let window_variance chain i ~pos ~len =
  if len < 2 then 0.0
  else begin
    let m = window_mean chain i ~pos ~len in
    let a = { acc = 0.0 } in
    for k = pos to pos + len - 1 do
      let d = Chain.value chain k i -. m in
      a.acc <- a.acc +. (d *. d)
    done;
    a.acc /. float_of_int (len - 1)
  end

let r_hat_coord chains i =
  let m = Array.length chains in
  if m < 2 then
    invalid_arg "Diagnostics.r_hat_coord: need at least two chains";
  let n = Chain.length chains.(0) in
  Array.iter
    (fun c ->
      if Chain.length c <> n then
        invalid_arg "Diagnostics.r_hat_coord: unequal chain lengths")
    chains;
  if n < 2 then 1.0
  else
    psr ~n
      (Array.map (fun c -> window_mean c i ~pos:0 ~len:n) chains)
      (Array.map (fun c -> window_variance c i ~pos:0 ~len:n) chains)

let split_r_hat_coord chain i =
  let n = Chain.length chain in
  if n < 4 then 1.0
  else begin
    let half = n / 2 in
    psr ~n:half
      [| window_mean chain i ~pos:0 ~len:half;
         window_mean chain i ~pos:(n - half) ~len:half |]
      [| window_variance chain i ~pos:0 ~len:half;
         window_variance chain i ~pos:(n - half) ~len:half |]
  end
