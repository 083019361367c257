open Because_bgp

let remove_prepending path =
  let rec go = function
    | a :: (b :: _ as rest) -> if Asn.equal a b then go rest else a :: go rest
    | short -> short
  in
  go path

let has_loop path =
  let deduped = remove_prepending path in
  let rec check seen = function
    | [] -> false
    | a :: rest -> Asn.Set.mem a seen || check (Asn.Set.add a seen) rest
  in
  check Asn.Set.empty deduped

let clean path =
  let cleaned = remove_prepending path in
  if has_loop cleaned then None else Some cleaned
