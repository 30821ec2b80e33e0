(* A multiplicative mix, top bits kept. The generic [Hashtbl.hash]
   folds an int's high 32 bits onto its low 32, so a packed
   [(client lsl 32) lor id] would hash as [client lxor id] and pile
   thousands of keys onto the same slots; the mix keeps probe runs
   short for packed and for clustered keys alike. *)
let slot k ~mask = ((k * 0x1E3779B97F4A7C15) lsr 32) land mask
